#include "core/result.h"

#include "core/plurality_protocol.h"
#include "sim/convergence.h"

namespace plurality::core {

consensus_result run_to_consensus(const protocol_config& cfg,
                                  const workload::opinion_distribution& dist, std::uint64_t seed) {
    sim::rng setup_gen(sim::derive_seed(seed, sim::setup_stream));
    plurality_protocol protocol{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup_gen);
    sim::simulation<plurality_protocol> simulation{std::move(protocol), std::move(population),
                                                   sim::derive_seed(seed, sim::run_stream)};

    const auto done = [](const auto& s) { return all_winners(s); };
    const auto run = sim::converge(simulation, done,
                                   sim::interaction_budget(cfg.default_time_budget(), dist.n()));

    consensus_result result;
    result.parallel_time = run.parallel_time;
    result.interactions = run.interactions;
    result.converged = run.converged;
    result.winner_opinion = consensus_opinion(simulation);
    result.correct = result.converged && result.winner_opinion == dist.plurality_opinion();
    return result;
}

}  // namespace plurality::core
