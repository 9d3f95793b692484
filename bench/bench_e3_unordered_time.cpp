// E3 — unordered variant runtime (Theorem 1 (2)): O(k·log n + log² n).
// Same sweeps as E1; the difference against E1's numbers isolates the
// additive leader-election term and the selection-phase overhead.
#include "bench_common.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

void BM_UnorderedTime_N(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    params.k = 4;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/unordered", params, 3, 0xe3000 + n);
        report(state, runs);
        const double log2n = std::log2(static_cast<double>(n));
        state.counters["pt_per_log2sq"] = runs.summary.time_stats.mean / (log2n * log2n);
    }
}
BENCHMARK(BM_UnorderedTime_N)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_UnorderedTime_K(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = 1024;
    params.k = k;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/unordered", params, 3, 0xe3500 + k);
        report(state, runs);
        state.counters["pt_per_k"] = runs.summary.time_stats.mean / static_cast<double>(k);
    }
}
BENCHMARK(BM_UnorderedTime_K)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The ordered protocol on the same instances, as the in-binary reference for
// the additive overhead.
void BM_OrderedReference(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    params.k = 4;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/ordered", params, 3, 0xe3900 + n);
        report(state, runs);
    }
}
BENCHMARK(BM_OrderedReference)
    ->Arg(512)
    ->Arg(2048)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
