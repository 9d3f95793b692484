// E19 — observability overhead: the instrumented census simulator vs the
// same simulator with instrumentation compiled out, in one binary.
//
// The obs layer (src/obs/) is designed to be cheap enough to leave on: all
// counters are single adds on cold or already-memory-bound paths, and phase
// timers are *run*-granular (a handful of rdtsc reads per collision-free
// run, never per interaction).  This experiment pins that claim with a
// number.  Both arms instantiate the same census simulator template — one
// with obs::enabled, one with obs::disabled (the [[no_unique_address]]
// no-op policy) — so a single Release binary carries an honest A/B: same
// compiler, same flags, same link, only the policy differs.
//
// Row family:
//
//  * ObsOverhead — interleaved enabled/disabled runs of the identical
//    fixed interaction budget at n = 10⁹ (epidemic broadcast and
//    three-state majority; same seeds in both arms).  The
//    `throughput_ratio` counter — the median over iterations of disabled
//    seconds over enabled seconds — is the acceptance bar: it must stay
//    ≥ 0.98 (≤ 2% overhead).  Arms alternate within every iteration so
//    slow drift of the machine (thermal, noisy neighbors) cancels instead
//    of biasing one side, and the median discards iterations a noise
//    window corrupted.  `throughput_ratio_q1` / `_q3`, the quartiles of
//    the same per-iteration ratios, and the row's `iterations` say how
//    finely one run resolves that median: on a noisy host the
//    interquartile range can be wider than the 2% budget.
//
// scripts/run_benches.sh gates recorded BENCH_E19.json files on that
// counter; docs/OBSERVABILITY.md documents the methodology.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/stats.h"
#include "baselines/usd_plurality.h"
#include "bench/bench_common.h"
#include "epidemic/epidemic.h"
#include "obs/metrics.h"
#include "sim/census_simulator.h"

namespace {

using namespace plurality;

using epidemic_entries = std::vector<sim::census_entry<epidemic::epidemic_agent>>;
using three_entries = std::vector<sim::census_entry<baselines::usd_agent>>;

epidemic_entries epidemic_census(std::uint64_t n) {
    return {{{true, 1}, 1}, {{false, 0}, n - 1}};
}

/// The 3-state majority: undecided-state dynamics at k = 2, opinion 1 α and
/// 2 β.
three_entries three_state_census(std::uint64_t n) {
    const std::uint64_t bias = n / 4;  // deep w.h.p. regime
    const std::uint64_t minus = (n - bias) / 2;
    return {{{1}, n - minus}, {{2}, minus}};
}

// Sized so each arm's wall time is well clear of timer noise (>= 0.5 s per
// side at n = 10⁹ on the reference machine): the table runs spend their
// cost in the pre-absorption regime, so the budget spans full epidemic
// convergence (~30 parallel time at n = 10⁹) rather than stopping inside
// it.
constexpr std::uint64_t overhead_budget = 30'000'000'000;

/// One timed fixed-budget run of `Sim` (the template-policy arm is baked
/// into the type).
template <class Sim, class Entries>
double timed_run(const Entries& entries, std::uint64_t seed) {
    Sim sim{{}, entries, seed};
    const auto started = std::chrono::steady_clock::now();
    sim.run_for(overhead_budget);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
    benchmark::DoNotOptimize(sim.interactions());
    return elapsed.count();
}

/// Interleaved A/B: every iteration times enabled-then-disabled on the same
/// seed, then disabled-then-enabled on the next, so neither arm
/// systematically runs first.  The gate counter is the *median* of the
/// per-iteration ratios: the two arms of one iteration run back-to-back,
/// so machine drift largely cancels within a pair, and the median discards
/// iterations where a noisy-neighbor window landed on one arm — a totals
/// ratio would smear such a window across the whole measurement.
template <bool three_state_rows>
void BM_ObsOverhead(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    double enabled_seconds = 0.0;
    double disabled_seconds = 0.0;
    std::vector<double> iteration_ratios;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        const std::uint64_t seed = 0xe19000 + n + iteration;
        const bool enabled_first = (iteration % 2) == 0;
        ++iteration;
        if constexpr (three_state_rows) {
            using enabled_sim =
                sim::census_simulator<baselines::usd_plurality_protocol, void, obs::enabled>;
            using disabled_sim =
                sim::census_simulator<baselines::usd_plurality_protocol, void, obs::disabled>;
            const auto entries = three_state_census(n);
            double e = 0.0;
            double d = 0.0;
            if (enabled_first) {
                e = timed_run<enabled_sim>(entries, seed);
                d = timed_run<disabled_sim>(entries, seed);
            } else {
                d = timed_run<disabled_sim>(entries, seed);
                e = timed_run<enabled_sim>(entries, seed);
            }
            enabled_seconds += e;
            disabled_seconds += d;
            iteration_ratios.push_back(d / e);
        } else {
            using enabled_sim =
                sim::census_simulator<epidemic::epidemic_protocol, void, obs::enabled>;
            using disabled_sim =
                sim::census_simulator<epidemic::epidemic_protocol, void, obs::disabled>;
            const auto entries = epidemic_census(n);
            double e = 0.0;
            double d = 0.0;
            if (enabled_first) {
                e = timed_run<enabled_sim>(entries, seed);
                d = timed_run<disabled_sim>(entries, seed);
            } else {
                d = timed_run<disabled_sim>(entries, seed);
                e = timed_run<enabled_sim>(entries, seed);
            }
            enabled_seconds += e;
            disabled_seconds += d;
            iteration_ratios.push_back(d / e);
        }
    }
    const double interactions =
        static_cast<double>(overhead_budget) * static_cast<double>(iteration);
    state.counters["population"] = static_cast<double>(n);
    state.counters["enabled_interactions_per_sec"] =
        enabled_seconds > 0.0 ? interactions / enabled_seconds : 0.0;
    state.counters["disabled_interactions_per_sec"] =
        disabled_seconds > 0.0 ? interactions / disabled_seconds : 0.0;
    // The acceptance counter: enabled throughput over disabled throughput,
    // median over iterations (see the function comment).  >= 0.98 means the
    // instrumentation costs at most 2% of the hot loop.  Its quartiles and
    // the totals ratio are reported alongside.
    const auto ratio_quantile = [&iteration_ratios](double p) {
        return iteration_ratios.empty() ? 0.0 : analysis::percentile(iteration_ratios, p);
    };
    state.counters["throughput_ratio"] = ratio_quantile(0.5);
    state.counters["throughput_ratio_q1"] = ratio_quantile(0.25);
    state.counters["throughput_ratio_q3"] = ratio_quantile(0.75);
    state.counters["totals_throughput_ratio"] =
        enabled_seconds > 0.0 ? disabled_seconds / enabled_seconds : 0.0;
    state.counters["enabled_seconds"] = enabled_seconds;
    state.counters["disabled_seconds"] = disabled_seconds;
    state.SetLabel(three_state_rows ? "three-state" : "epidemic");
}

// MinTime forces several iterations per row so the enabled-first /
// disabled-first alternation actually interleaves (a single iteration
// would leave one arm always first, reintroducing warmup bias).
BENCHMARK(BM_ObsOverhead<false>)
    ->Name("BM_ObsOverhead/epidemic")
    ->ArgNames({"n"})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->MinTime(6.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObsOverhead<true>)
    ->Name("BM_ObsOverhead/three_state")
    ->ArgNames({"n"})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->MinTime(6.0)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
