// E8 — the exact-majority substrate versus approximate majority (Appendix A;
// [20] vs [4]): at bias 1 the 3-state dynamics is a coin flip while both
// exact substrates (averaging, cancel–double) decide correctly; at large
// bias everyone is correct and the 3-state protocol is fastest.  Also
// measures the time/state trade between the two exact substrates.
//
// Every row runs a registered majority scenario (the split of
// builtin_majority.cpp: minus = (n - bias) / 2, plus = minus + bias, and at
// even n with an odd bias one blank agent), with the row's own parallel-time
// budget.
#include <cmath>

#include "bench/bench_common.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"

namespace {

using namespace plurality;
using namespace plurality::majority;

constexpr std::uint32_t population = 4096;

std::uint32_t bias_from_code(std::int64_t code) {
    // 1 => bias 1; 2 => sqrt(n·log n); 3 => n/4.
    switch (code) {
        case 1:
            return 1;
        case 2:
            return static_cast<std::uint32_t>(
                std::sqrt(population * std::log2(population)));
        default:
            return population / 4;
    }
}

/// Runs and reports 20 trials of the majority scenario `name` at the bias
/// `state.range(0)` codes for, each cut off after `budget` parallel time.
void run_majority(benchmark::State& state, const char* name, double budget,
                  std::uint64_t base_seed) {
    scenario::scenario_params params;
    params.n = population;
    params.bias = bias_from_code(state.range(0));
    params.time_budget = budget;
    bench::report(state, bench::run_scenario(name, params, 20, base_seed + params.bias));
    state.counters["bias"] = static_cast<double>(params.bias);
}

void BM_ThreeState(benchmark::State& state) {
    for (auto _ : state) run_majority(state, "majority/three-state", 4000.0, 0xe8100);
}
BENCHMARK(BM_ThreeState)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Averaging(benchmark::State& state) {
    const std::int64_t amp = default_amplification(population);
    for (auto _ : state) {
        run_majority(state, "majority/averaging", 2000.0, 0xe8200);
        state.counters["states"] = static_cast<double>(2 * amp + 1);
    }
}
BENCHMARK(BM_Averaging)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_CancelDouble(benchmark::State& state) {
    const std::uint8_t cap = default_level_cap(population);
    for (auto _ : state) {
        run_majority(state, "majority/cancel-double", 8000.0, 0xe8300);
        state.counters["states"] = 3.0 * (cap + 1);
    }
}
BENCHMARK(BM_CancelDouble)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
