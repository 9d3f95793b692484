// E15 — census-space backend: population sizes two orders of magnitude
// beyond what per-agent simulation can hold in memory.
//
// The agent backend stores one struct per agent, so its population ceiling
// is memory-bound (E14 skips rows past ~10⁷ core agents).  The census
// backend stores one counter per *occupied state*, making memory O(S)
// independent of n; these rows demonstrate and track that.
//
// Three families of rows:
//
//  * CensusThroughput — a k-opinion USD population executes a fixed
//    interaction budget on the census backend, swept over
//    n ∈ {10⁶, 10⁷, 10⁸, 10⁹}.  Per-interaction cost is O(log S), so the
//    rows should be flat in n; the counters record `occupied_states` and
//    `census_bytes` to pin the O(S)-memory claim — the n = 10⁹ row is the
//    acceptance demonstration (a billion-agent population in about two
//    kilobytes of census).
//
//  * CensusConvergence — full scenario-layer runs (epidemic broadcast and
//    three-state majority) to convergence on the census backend at
//    n ∈ {10⁵, 10⁶}: the end-to-end path (registry → census simulator →
//    convergence layer) with the standard counters.
//
//  * BackendComparison — the same scenario on both backends at an
//    agent-feasible n, reporting each backend's interactions_per_sec; the
//    census rows trade per-interaction Fenwick/hash work for O(S) memory,
//    and this row family tracks that trade explicitly.
//
// Census-backend memory never depends on n, so no row needs the E14-style
// memory-budget skip.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "baselines/usd_plurality.h"
#include "bench/bench_common.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_simulator.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;

constexpr std::uint32_t opinion_count = 8;

using usd_census_sim = sim::census_simulator<baselines::usd_plurality_protocol>;

/// Initial USD census for a bias-one workload: k slots, no undecided.
std::vector<sim::census_entry<baselines::usd_agent>> usd_census(std::uint32_t n,
                                                                std::uint32_t k) {
    return baselines::initial_census(workload::make_bias_one(n, k));
}

void BM_CensusThroughput(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    // A fixed interaction budget regardless of n, stepped one interaction at
    // a time (`advance`, not the table runs `run_for` would pick for USD's
    // few states): the cost per interaction is O(log S), so rows across the
    // n sweep should be flat — any growth is a regression in the sampling
    // structure.
    constexpr std::uint64_t budget = 4'000'000;

    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    std::size_t occupied = 0;
    std::size_t census_bytes = 0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        usd_census_sim sim{{}, usd_census(n, opinion_count), 0xe15000 + n + iteration++};
        const auto started = std::chrono::steady_clock::now();
        sim.advance(budget);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
        total_interactions += sim.interactions();
        total_seconds += elapsed.count();
        occupied = sim.occupied_states();
        census_bytes = sim.memory_bytes();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["population"] = static_cast<double>(n);
    state.counters["occupied_states"] = static_cast<double>(occupied);
    state.counters["census_bytes"] = static_cast<double>(census_bytes);
}
BENCHMARK(BM_CensusThroughput)
    ->ArgNames({"n"})
    ->Args({1'000'000})
    ->Args({10'000'000})
    ->Args({100'000'000})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CensusLocate(benchmark::State& state) {
    // A/B of the Fenwick rank->slot descent in isolation: the branchless
    // masked production path vs the guarded-loop reference it
    // replaced.  USD declares no activity classes, so its one class tree
    // holds the whole census.  The tree is small (S slots, not n), so both
    // live in L1 and the delta measures branch-misprediction cost only —
    // report it honestly even when it is small; the row exists so a
    // regression in either path is visible.
    const bool branchless = state.range(0) != 0;
    usd_census_sim sim{{}, usd_census(1'000'000, opinion_count), 0xe15700};
    sim.run_for(200'000);  // spread mass across decided/undecided slots
    constexpr std::uint32_t only_class = 0;
    const std::uint64_t population = sim.class_count(only_class);

    plurality::sim::rng ranks{0xe15701};
    std::uint64_t lookups = 0;
    std::size_t sink = 0;
    for (auto _ : state) {
        constexpr std::uint64_t batch = 1024;
        if (branchless) {
            for (std::uint64_t i = 0; i < batch; ++i)
                sink += sim.locate_rank(only_class, ranks.next_below(population));
        } else {
            for (std::uint64_t i = 0; i < batch; ++i)
                sink += sim.locate_rank_reference(only_class, ranks.next_below(population));
        }
        lookups += batch;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
    state.counters["occupied_states"] = static_cast<double>(sim.occupied_states());
    state.SetLabel(branchless ? "branchless" : "reference");
}
BENCHMARK(BM_CensusLocate)
    ->ArgNames({"branchless"})
    ->Args({0})
    ->Args({1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CensusConvergence(benchmark::State& state) {
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
    // Deep inside the w.h.p. regime so every trial converges: broadcast
    // needs no bias; three-state gets one far above sqrt(n log n).
    if (majority_rows) params.bias = n / 4;

    const std::size_t trials = bench::bench_trials(3);
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    std::size_t converged = 0;
    double mean_time = 0.0;
    for (auto _ : state) {
        const auto started = std::chrono::steady_clock::now();
        const auto result = scenario::run_scenario_trials(*s, params, trials, 0xe15500 + n,
                                                          bench::shared_executor(),
                                                          scenario::backend_kind::census);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
        total_interactions += result.summary.total_interactions;
        total_seconds += elapsed.count();
        converged = result.summary.converged;
        mean_time = result.summary.time_stats.mean;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["trials"] = static_cast<double>(trials);
    state.counters["converged"] = static_cast<double>(converged);
    state.counters["parallel_time"] = mean_time;
    state.counters["threads"] = static_cast<double>(bench::shared_executor().threads());
    state.SetLabel(s->name());
}
BENCHMARK(BM_CensusConvergence)
    ->ArgNames({"n", "scenario"})
    ->ArgsProduct({{100'000, 1'000'000}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BackendComparison(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto backend = state.range(1) != 0 ? scenario::backend_kind::census
                                             : scenario::backend_kind::agent;
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    if (s == nullptr) {
        state.SkipWithError("scenario not registered");
        return;
    }
    scenario::scenario_params params;
    params.n = n;

    const std::size_t trials = bench::bench_trials(3);
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    for (auto _ : state) {
        const auto started = std::chrono::steady_clock::now();
        const auto result = scenario::run_scenario_trials(*s, params, trials, 0xe15900 + n,
                                                          bench::shared_executor(), backend);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
        total_interactions += result.summary.total_interactions;
        total_seconds += elapsed.count();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["population"] = static_cast<double>(n);
    state.SetLabel(backend == scenario::backend_kind::census ? "census" : "agent");
}
BENCHMARK(BM_BackendComparison)
    ->ArgNames({"n", "backend"})
    ->ArgsProduct({{100'000, 1'000'000}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
