// E1 — SimpleAlgorithm runtime shape (Theorem 1 (1)): parallel time is
// O(k·log n) on bias-1 instances.  Two sweeps: n at fixed k (logarithmic
// growth) and k at fixed n (linear growth).
#include "bench_common.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

void BM_SimpleTime_N(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    params.k = 4;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/ordered", params, 5, 0xe1000 + n);
        report(state, runs);
        state.counters["pt_per_log2n"] =
            runs.summary.time_stats.mean / std::log2(static_cast<double>(n));
    }
}
BENCHMARK(BM_SimpleTime_N)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_SimpleTime_K(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = 1024;
    params.k = k;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/ordered", params, 5, 0xe1500 + k);
        report(state, runs);
        state.counters["pt_per_k"] = runs.summary.time_stats.mean / static_cast<double>(k);
    }
}
BENCHMARK(BM_SimpleTime_K)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
