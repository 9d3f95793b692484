// E4 — ImprovedAlgorithm runtime (Theorem 2): O(n/x_max·log n + log² n),
// independent of the number of insignificant opinions.  On dominant+dust
// workloads the unordered variant pays Θ(k·log n) for the dust while the
// pruned protocol's runtime stays flat — the paper's headline speedup.
#include "bench_common.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

constexpr std::uint32_t n = 2048;

/// The dominant workload at n: one opinion holding `fraction` of the agents
/// and `dust` insignificant ones splitting the rest.
scenario::scenario_params dominant_plus_dust(double fraction, std::uint32_t dust) {
    scenario::scenario_params params;
    params.n = n;
    params.workload = "dominant";
    params.fraction = fraction;
    params.dust = dust;
    return params;
}

void BM_Improved_Dust(benchmark::State& state) {
    const auto params = dominant_plus_dust(0.5, static_cast<std::uint32_t>(state.range(0)));
    const auto dist = workload::make_dominant_plus_dust(n, params.fraction, params.dust);
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/improved", params, 3, 0xe4000 + params.dust);
        report(state, runs);
        state.counters["k"] = static_cast<double>(dist.k());
        state.counters["n_over_xmax"] = static_cast<double>(n) / dist.x_max();
    }
}
BENCHMARK(BM_Improved_Dust)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Unordered_Dust(benchmark::State& state) {
    const auto params = dominant_plus_dust(0.5, static_cast<std::uint32_t>(state.range(0)));
    const auto dist = workload::make_dominant_plus_dust(n, params.fraction, params.dust);
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/unordered", params, 2, 0xe4500 + params.dust);
        report(state, runs);
        state.counters["k"] = static_cast<double>(dist.k());
    }
}
BENCHMARK(BM_Unordered_Dust)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Runtime as a function of the plurality's weight: heavier plurality =>
// fewer significant opinions => fewer tournaments.
void BM_Improved_XmaxFraction(benchmark::State& state) {
    const auto params = dominant_plus_dust(static_cast<double>(state.range(0)) / 100.0, 12);
    const auto dist = workload::make_dominant_plus_dust(n, params.fraction, params.dust);
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/improved", params, 3, 0xe4900 + state.range(0));
        report(state, runs);
        state.counters["n_over_xmax"] = static_cast<double>(n) / dist.x_max();
    }
}
BENCHMARK(BM_Improved_XmaxFraction)
    ->Arg(30)
    ->Arg(50)
    ->Arg(70)
    ->Arg(90)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
