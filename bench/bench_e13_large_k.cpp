// E13 — the Appendix C extension: SimpleAlgorithm beyond k <= n/40.
// Checks correctness at bias 1 for k up to well past n/2 and that the
// initialization time keeps tracking O(n·(k + log n)).
#include "bench_common.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

void BM_LargeK_Correctness(benchmark::State& state) {
    const std::uint32_t n = 512;
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const bool unordered = k > n / 2;
    const auto cfg = core::protocol_config::make(
        unordered ? core::algorithm_mode::unordered : core::algorithm_mode::ordered, n, k);
    scenario::scenario_params params;
    params.n = n;
    params.k = k;
    for (auto _ : state) {
        const auto runs = run_scenario(unordered ? "plurality/unordered" : "plurality/ordered",
                                       params, 3, 0xed000 + k);
        report(state, runs);
        state.counters["pt_per_k"] = runs.summary.time_stats.mean / static_cast<double>(k);
        state.counters["large_k"] = cfg.large_k ? 1.0 : 0.0;
    }
}
BENCHMARK(BM_LargeK_Correctness)
    ->Arg(12)    // Theorem 1 regime (k < n/40)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(300)   // singleton-heavy regime, k > n/2
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_LargeK_InitTime(benchmark::State& state) {
    const std::uint32_t n = 512;
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, k);
    const auto dist = workload::make_bias_one(n, k);
    for (auto _ : state) {
        double total = 0.0;
        const int trials = 5;
        for (int t = 0; t < trials; ++t) {
            sim::rng setup(sim::derive_seed(0xed500 + k, t));
            core::plurality_protocol proto{cfg};
            auto population = core::plurality_protocol::make_population(cfg, dist, setup);
            sim::simulation<core::plurality_protocol> s{std::move(proto), std::move(population),
                                                        sim::derive_seed(0xed600 + k, t)};
            const auto done = [](const auto& sim) { return core::init_finished(sim); };
            (void)sim::converge(s, done, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);
            total += s.parallel_time();
        }
        state.counters["init_pt"] = total / trials;
        state.counters["pt_per_k_plus_log"] =
            total / trials / (k + std::log2(static_cast<double>(n)));
    }
}
BENCHMARK(BM_LargeK_InitTime)
    ->Arg(12)
    ->Arg(64)
    ->Arg(128)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
