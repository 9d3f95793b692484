// E7 — the pruning phase (Lemmas 9 and 10): when the first agent finishes
// its hours, (1) only O(n/x_max) opinions survive, (2) the plurality keeps
// every token, (3) clock/tracker/player roles each hold >= n/10 agents, and
// the pruning time scales with n/x_max · log n.
#include <algorithm>

#include "bench_common.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

struct pruning_measurement {
    double prune_pt = 0.0;
    double survivors = 0.0;
    double plurality_tokens_kept = 0.0;  ///< fraction of x_max preserved
    double min_nonc_role_fraction = 0.0;
};

pruning_measurement measure(const workload::opinion_distribution& dist, std::uint64_t seed) {
    const std::uint32_t n = dist.n();
    const auto cfg = core::protocol_config::make(core::algorithm_mode::improved, n, dist.k());
    sim::rng setup(sim::derive_seed(seed, 1));
    core::plurality_protocol proto{cfg};
    auto population = core::plurality_protocol::make_population(cfg, dist, setup);
    sim::simulation<core::plurality_protocol> s{std::move(proto), std::move(population),
                                                sim::derive_seed(seed, 2)};
    const auto pruned = [](const auto& sim) { return core::init_finished(sim); };
    (void)sim::converge(s, pruned, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);
    const double prune_pt = s.parallel_time();
    s.run_for(20ull * n);  // let the broadcast settle

    pruning_measurement m;
    m.prune_pt = prune_pt;
    m.survivors = static_cast<double>(core::surviving_opinions(s).size());
    m.plurality_tokens_kept =
        static_cast<double>(core::tokens_of_opinion(s, dist.plurality_opinion())) /
        dist.x_max();
    const auto counts = core::role_counts(s);
    const auto min_role =
        std::min({counts[1], counts[2], counts[3]});  // clock, tracker, player
    m.min_nonc_role_fraction = static_cast<double>(min_role) / n;
    return m;
}

void BM_Pruning_Dust(benchmark::State& state) {
    const std::uint32_t n = 4096;
    const auto dust = static_cast<std::uint32_t>(state.range(0));
    const auto dist = workload::make_dominant_plus_dust(n, 0.5, dust);
    for (auto _ : state) {
        pruning_measurement worst;
        worst.plurality_tokens_kept = 1.0;
        worst.min_nonc_role_fraction = 1.0;
        double pt_sum = 0.0;
        double surv_max = 0.0;
        const int trials = 3;
        for (int t = 0; t < trials; ++t) {
            const auto m = measure(dist, 0xe7000 + dust + t);
            pt_sum += m.prune_pt;
            surv_max = std::max(surv_max, m.survivors);
            worst.plurality_tokens_kept =
                std::min(worst.plurality_tokens_kept, m.plurality_tokens_kept);
            worst.min_nonc_role_fraction =
                std::min(worst.min_nonc_role_fraction, m.min_nonc_role_fraction);
        }
        state.counters["prune_pt"] = pt_sum / trials;
        state.counters["max_survivors"] = surv_max;
        state.counters["k"] = static_cast<double>(dist.k());
        state.counters["plurality_tokens_kept"] = worst.plurality_tokens_kept;
        state.counters["min_role_fraction"] = worst.min_nonc_role_fraction;
    }
}
BENCHMARK(BM_Pruning_Dust)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Pruning time versus the plurality weight (Lemma 10: t̂ = Θ(n/x_max·log n)).
void BM_Pruning_Xmax(benchmark::State& state) {
    const std::uint32_t n = 4096;
    const double fraction = static_cast<double>(state.range(0)) / 100.0;
    const auto dist = workload::make_dominant_plus_dust(n, fraction, 8);
    for (auto _ : state) {
        const auto m = measure(dist, 0xe7800 + state.range(0));
        state.counters["prune_pt"] = m.prune_pt;
        state.counters["n_over_xmax"] = static_cast<double>(n) / dist.x_max();
        state.counters["pt_per_pred"] =
            m.prune_pt / ((static_cast<double>(n) / dist.x_max()) * std::log2(n));
    }
}
BENCHMARK(BM_Pruning_Xmax)
    ->Arg(30)
    ->Arg(50)
    ->Arg(70)
    ->Arg(90)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
