// E17 — pair-type leaping backend: O(occupied²) runs instead of one
// Fenwick-sampled interaction at a time.
//
// The per-step census backend (sim/census_simulator.h) pays two Fenwick
// descents and a δ call for every interaction.  The leap backend
// (sim/leap_census_simulator.h) steps whole collision-free runs of Θ(√n)
// interactions instead: the run length comes from a single uniform inverted
// through the closed-form log-survival curve, and the ordered
// (initiator-state × responder-state) contingency table is sampled directly
// by sequential multivariate-hypergeometric conditioning — so per-run cost
// is O(occupied²), independent of n.  Both backends simulate the same
// Markov chain (tests/test_census_backend.cpp pins the agreement); these
// rows are a pure throughput comparison.
//
// Row families:
//
//  * LeapThroughput — a fixed interaction budget on the leap backend, for
//    the two canonical small-S protocols (epidemic broadcast, three-state
//    majority) at n ∈ {10⁸, 10⁹}.
//
//  * LeapSpeedup — leap and the per-step census backend inside one row
//    (same protocol, same n, same budget), reporting the ratio directly as
//    a `speedup` counter so the recorded BENCH_E17.json carries the
//    comparison without offline arithmetic.  Census is the bar leap must
//    never fall below; the acceptance bar for this experiment is leap ≥ 5×
//    census on both protocols at n = 10⁹.
//
//  * LeapConvergence — full scenario-layer runs to convergence on the leap
//    backend at n = 10⁹ (epidemic broadcast and three-state majority): the
//    end-to-end path with a `wall_seconds_per_trial` counter.  The
//    acceptance bar is epidemic broadcast at n = 10⁹ converging in well
//    under a second of wall clock.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "epidemic/epidemic.h"
#include "majority/three_state.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_simulator.h"
#include "sim/leap_census_simulator.h"

namespace {

using namespace plurality;

struct epidemic_rows {
    using protocol_t = epidemic::epidemic_protocol;
    static constexpr const char* label = "epidemic";
    static std::vector<sim::census_entry<epidemic::epidemic_agent>> census(std::uint64_t n) {
        return {{{true, 1}, 1}, {{false, 0}, n - 1}};
    }
};

struct three_state_rows {
    using protocol_t = majority::three_state_protocol;
    static constexpr const char* label = "three-state";
    static std::vector<sim::census_entry<majority::three_state_agent>> census(std::uint64_t n) {
        const std::uint64_t bias = n / 4;  // deep w.h.p. regime
        const std::uint64_t minus = (n - bias) / 2;
        using enum majority::binary_opinion;
        return {{{alpha}, n - minus}, {{beta}, minus}};
    }
};

template <class Rows>
using leap_sim = sim::leap_census_simulator<typename Rows::protocol_t>;

// Large enough that the faster backend's wall time is still comfortably
// measurable (the leap backend clears 40M interactions at n = 10⁹ in about
// a millisecond), small enough that the per-step census side stays a row of
// a few seconds.
constexpr std::uint64_t throughput_budget = 40'000'000;

/// Wall seconds for `sim` to execute the fixed budget.
template <class Sim>
double timed_budget(Sim& sim) {
    const auto started = std::chrono::steady_clock::now();
    sim.run_for(throughput_budget);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
}

/// The fixed budget on the leap backend: interactions/sec plus the
/// census-shape counters.
template <class Rows>
void BM_LeapThroughput(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const auto entries = Rows::census(n);
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    std::size_t occupied = 0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        leap_sim<Rows> sim{{}, entries, 0xe17000 + n + iteration++};
        total_seconds += timed_budget(sim);
        total_interactions += sim.interactions();
        occupied = sim.occupied_states();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["population"] = static_cast<double>(n);
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["occupied_states"] = static_cast<double>(occupied);
    state.SetLabel(std::string(Rows::label) + "/leap");
}

BENCHMARK(BM_LeapThroughput<epidemic_rows>)
    ->Name("BM_LeapThroughput/epidemic")
    ->ArgNames({"n"})
    ->Args({100'000'000})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeapThroughput<three_state_rows>)
    ->Name("BM_LeapThroughput/three_state")
    ->ArgNames({"n"})
    ->Args({100'000'000})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Both backends inside one row; `speedup` = census wall / leap wall for the
/// identical interaction budget.  This is the acceptance counter: it must
/// stay >= 5 on both protocols at n = 10⁹.
template <class Rows>
void BM_LeapSpeedup(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    const auto entries = Rows::census(n);
    double census_seconds = 0.0;
    double leap_seconds = 0.0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        const std::uint64_t seed = 0xe17500 + n + iteration++;
        sim::census_simulator<typename Rows::protocol_t> census{{}, entries, seed};
        census_seconds += timed_budget(census);
        leap_sim<Rows> leap{{}, entries, seed};
        leap_seconds += timed_budget(leap);
    }
    const auto rate = [&](double seconds) {
        return seconds > 0.0 ? static_cast<double>(throughput_budget) *
                                   static_cast<double>(iteration) / seconds
                             : 0.0;
    };
    state.counters["population"] = static_cast<double>(n);
    state.counters["speedup"] = leap_seconds > 0.0 ? census_seconds / leap_seconds : 0.0;
    state.counters["census_interactions_per_sec"] = rate(census_seconds);
    state.counters["leap_interactions_per_sec"] = rate(leap_seconds);
    state.SetLabel(Rows::label);
}

BENCHMARK(BM_LeapSpeedup<epidemic_rows>)
    ->Name("BM_LeapSpeedup/epidemic")
    ->ArgNames({"n"})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeapSpeedup<three_state_rows>)
    ->Name("BM_LeapSpeedup/three_state")
    ->ArgNames({"n"})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LeapConvergence(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const bool majority_rows = state.range(1) != 0;
    const auto* s = scenario::scenario_registry::instance().find(
        majority_rows ? "majority/three-state" : "epidemic/broadcast");
    if (s == nullptr) {
        state.SkipWithError("scenario not registered");
        return;
    }
    scenario::scenario_params params;
    params.n = n;
    if (majority_rows) params.bias = n / 4;  // deep w.h.p. regime

    const std::size_t trials = bench::bench_trials(1);
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    std::size_t converged = 0;
    double mean_time = 0.0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        const auto started = std::chrono::steady_clock::now();
        const auto result =
            scenario::run_scenario_trials(*s, params, trials, 0xe17900 + n,
                                          bench::shared_executor(), scenario::backend_kind::leap);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
        total_interactions += result.summary.total_interactions;
        total_seconds += elapsed.count();
        converged = result.summary.converged;
        mean_time = result.summary.time_stats.mean;
        ++iteration;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["trials"] = static_cast<double>(trials);
    state.counters["converged"] = static_cast<double>(converged);
    state.counters["parallel_time"] = mean_time;
    // The acceptance counter: full-convergence wall clock per trial.  The
    // epidemic row at n = 10⁹ must stay well under 1.0.
    state.counters["wall_seconds_per_trial"] =
        iteration > 0 ? total_seconds / (static_cast<double>(iteration) *
                                         static_cast<double>(trials))
                      : 0.0;
    state.SetLabel(majority_rows ? "majority/three-state@leap" : "epidemic/broadcast@leap");
}
BENCHMARK(BM_LeapConvergence)
    ->ArgNames({"n", "scenario"})
    ->ArgsProduct({{1'000'000'000}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
