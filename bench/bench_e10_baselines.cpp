// E10 — positioning against the baselines (§1): at bias 1 the exact
// tournament protocol is correct while undecided-state dynamics coin-flips;
// the always-correct 4-state majority is exact too but pays Θ(n)-ish time at
// bias 1 (k = 2), which is the cost the paper's w.h.p. protocols avoid.
//
// Every row runs a registered scenario — the same trials as plurality_run —
// so this benchmark adds no private setup or convergence code.
#include "bench_common.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

constexpr std::uint32_t population = 2049;  // odd: bias 1 feasible at k = 2

void BM_ExactTournaments_BiasOne(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = population;
    params.k = k;
    for (auto _ : state) report(state, run_scenario("plurality/ordered", params, 10, 0xea000 + k));
}
BENCHMARK(BM_ExactTournaments_BiasOne)
    ->Arg(2)
    ->Arg(5)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Usd_BiasOne(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = population;
    params.k = k;
    for (auto _ : state) report(state, run_scenario("baselines/usd", params, 30, 0xea100 + k));
}
BENCHMARK(BM_Usd_BiasOne)->Arg(2)->Arg(5)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Usd_LargeBias(benchmark::State& state) {
    const auto k = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = population;
    params.k = k;
    params.bias = population / 4;
    for (auto _ : state) report(state, run_scenario("baselines/usd", params, 10, 0xea200 + k));
}
BENCHMARK(BM_Usd_LargeBias)->Arg(2)->Arg(5)->Iterations(1)->Unit(benchmark::kMillisecond);

// The stable (always-correct) 4-state exact majority at bias 1: correct by
// construction but the final cancellation takes Θ(n) expected parallel time.
void BM_StableFourState_BiasOne(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    params.bias = 2;  // n/2 + 1 vs n/2 - 1, as the even-n bias-1 analogue
    for (auto _ : state) {
        const auto result = run_scenario("majority/four-state", params, 5, 0xea300 + n);
        report(state, result);
        state.counters["pt_per_n"] = result.summary.time_stats.mean / n;
    }
}
BENCHMARK(BM_StableFourState_BiasOne)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
