// Chemical-reaction-network scenario: molecules of k competing species in a
// well-mixed solution; binary collisions drive state changes.  Population
// protocols are the standard abstraction for such CRNs (paper §1, [15, 30]).
//
// This example peeks inside an ImprovedAlgorithm execution: it prints the
// lifecycle timeline — token collection and per-species junta clocks, the
// pruning broadcast, leader election, tournaments, and the final winner
// broadcast — as molecule-role population counts over time.
#include <cstdio>
#include <cstdlib>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "workload/opinion_distribution.h"

int main(int argc, char** argv) {
    using namespace plurality;
    using namespace plurality::core;

    const std::uint32_t molecules = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2048;

    // One abundant species, one near-equal competitor, and trace species.
    const auto dist = workload::make_two_heavy_plus_dust(molecules, 1, 6);
    std::printf("=== well-mixed CRN: %u molecules, %u species ===\n", dist.n(), dist.k());
    std::printf("species counts:");
    for (std::uint32_t i = 1; i <= dist.k(); ++i) std::printf(" %u", dist.support_of(i));
    std::printf("\nmajority species: %u (margin %u)\n\n", dist.plurality_opinion(), dist.bias());

    const auto cfg = protocol_config::make(algorithm_mode::improved, dist.n(), dist.k());
    sim::rng setup(7);
    plurality_protocol protocol{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    sim::simulation<plurality_protocol> s{std::move(protocol), std::move(population), 7};

    std::printf("%10s %8s %8s %8s %8s %8s %10s\n", "time", "init", "collect", "clock", "track",
                "play", "species#");
    // The shared convergence loop drives the run; the observer prints the
    // lifecycle table on a geometric schedule (sampling every check point
    // would drown the interesting transitions in early-phase rows).
    double next_report = 0.0;
    const auto report_roles = [&next_report](const auto& sim) {
        if (sim.parallel_time() < next_report) return;
        next_report = sim.parallel_time() * 1.6 + 100.0;

        std::size_t in_init = 0;
        for (const auto& a : sim.agents())
            if (a.stage == lifecycle_stage::init) ++in_init;
        const auto roles = role_counts(sim);
        const auto species = surviving_opinions(sim);
        std::printf("%10.0f %8zu %8zu %8zu %8zu %8zu %10zu\n", sim.parallel_time(), in_init,
                    roles[0], roles[1], roles[2], roles[3], species.size());
    };
    (void)sim::converge(
        s, [](const auto& sim) { return all_winners(sim); },
        sim::interaction_budget(cfg.default_time_budget(), dist.n()), dist.n() / 2, report_roles);

    const std::uint32_t winner = consensus_opinion(s);
    std::printf("\nconsensus: species %u after %.0f parallel time -> %s\n", winner,
                s.parallel_time(), winner == dist.plurality_opinion() ? "CORRECT" : "WRONG");
    std::printf("note how the trace species vanish at the pruning broadcast long before\n"
                "any tournament is played.\n");
    return winner == dist.plurality_opinion() ? 0 : 1;
}
