// E14 — engine throughput: how many scheduler interactions per second the
// simulation engine sustains, and how trial-level parallelism scales it.
//
// Two families of rows:
//
//  * RawEngine — populations initialized for each algorithm mode execute a
//    fixed interaction budget (no convergence predicate), isolating the hot
//    path: block-scheduled pair sampling + protocol transition.  Swept over
//    n ∈ {1e4, 1e5, 1e6, 1e7} × threads ∈ {1, 2, 4, 8} × all three modes.
//    The single-thread rows are the per-core throughput trajectory tracked
//    across PRs; the multi-thread rows measure trial-level scaling.
//
//  * EndToEnd — full `plurality/<mode>` scenario batches through
//    `bench::run_scenario`, i.e. exactly what the E1–E13 experiments
//    execute, reporting the standard counters including
//    `interactions_per_sec`.
//
// Rows whose populations would not fit comfortably in memory at the
// requested concurrency are skipped with an explanatory message rather than
// silently dropped.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/plurality_protocol.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;

constexpr std::uint32_t opinion_count = 8;
constexpr std::size_t trials_per_batch = 8;  ///< divisible by every swept thread count

/// Populations larger than this per concurrent trial are skipped (64 B/agent;
/// leaves headroom for the rest of the process on an 8 GB machine).
constexpr std::uint64_t memory_budget_bytes = 4ull << 30;

core::algorithm_mode mode_from_arg(std::int64_t arg) {
    switch (arg) {
        case 1: return core::algorithm_mode::unordered;
        case 2: return core::algorithm_mode::improved;
        default: return core::algorithm_mode::ordered;
    }
}

const char* mode_name(core::algorithm_mode mode) {
    switch (mode) {
        case core::algorithm_mode::unordered: return "unordered";
        case core::algorithm_mode::improved: return "improved";
        default: return "ordered";
    }
}

void BM_RawEngineThroughput(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    const auto mode = mode_from_arg(state.range(2));

    const std::uint64_t concurrent = std::min<std::uint64_t>(threads, trials_per_batch);
    if (concurrent * n * sizeof(core::core_agent) > memory_budget_bytes) {
        state.SkipWithError("population would exceed the memory budget at this concurrency");
        return;
    }

    const auto cfg = core::protocol_config::make(mode, n, opinion_count);
    const auto dist = workload::make_bias_one(n, opinion_count);
    // Enough interactions that the per-trial setup cost is amortized, scaled
    // up for large n so every agent is touched a few times.
    const std::uint64_t budget = std::max<std::uint64_t>(2'000'000, 2ull * n);

    const sim::trial_executor executor{threads};
    // interactions_per_sec aggregates over every benchmark iteration, not
    // just the last batch — it is the perf metric tracked across PRs, so it
    // should use all the timing data the run collected.
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    for (auto _ : state) {
        const auto batch = scenario::run_trials(
            trials_per_batch, 0xe14000 + n + state.range(2), executor,
            [&](std::size_t, std::uint64_t seed) {
                sim::rng setup(sim::derive_seed(seed, sim::setup_stream));
                auto population = core::plurality_protocol::make_population(cfg, dist, setup);
                sim::simulation<core::plurality_protocol> s{
                    core::plurality_protocol{cfg}, std::move(population),
                    sim::derive_seed(seed, sim::run_stream)};
                s.run_for(budget);
                scenario::scenario_outcome out;
                out.interactions = s.interactions();
                return out;
            });
        total_interactions += batch.summary.total_interactions;
        total_seconds += batch.wall_seconds;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["population"] = static_cast<double>(n);
    state.SetLabel(mode_name(mode));
}
BENCHMARK(BM_RawEngineThroughput)
    ->ArgNames({"n", "threads", "mode"})
    ->ArgsProduct({{10'000, 100'000, 1'000'000, 10'000'000}, {1, 2, 4, 8}, {0, 1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndThroughput(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const auto threads = static_cast<std::size_t>(state.range(1));
    const auto mode = mode_from_arg(state.range(2));
    scenario::scenario_params params;
    params.n = n;
    params.k = opinion_count;
    const std::string name = std::string{"plurality/"} + mode_name(mode);

    const sim::trial_executor executor{threads};
    scenario::scenario_run_result runs;
    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    for (auto _ : state) {
        runs = bench::run_scenario(name.c_str(), params, trials_per_batch,
                                   0xe14900 + n + state.range(2), executor);
        total_interactions += runs.summary.total_interactions;
        total_seconds += runs.wall_seconds;
    }
    // The deterministic counters are identical every iteration.  The timing
    // ones are averaged back to per-batch values so the recorded counters
    // don't scale with Google Benchmark's auto-chosen iteration count, while
    // still using every iteration's data (the ratio is unaffected).
    if (state.iterations() > 0) {
        runs.summary.total_interactions = total_interactions / state.iterations();
        runs.wall_seconds = total_seconds / static_cast<double>(state.iterations());
    }
    bench::report(state, runs);
    state.SetLabel(mode_name(mode));
}
BENCHMARK(BM_EndToEndThroughput)
    ->ArgNames({"n", "threads", "mode"})
    ->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}, {0, 1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
