// Unit tests for the parallel trial executor (sim/trial_executor.h) and the
// batch runner built on it (scenario::run_trials, scenario/runner.h).
//
// The central property is the determinism contract: for a fixed
// (trials, base_seed, trial) the aggregated summary must be bitwise
// identical no matter how many worker threads execute the batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/result.h"
#include "scenario/runner.h"
#include "sim/rng.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using plurality::scenario::run_trials;
using plurality::scenario::scenario_outcome;
using plurality::scenario::scenario_run_summary;
using plurality::sim::trial_executor;

/// A trial body that is a pure function of its seed, with enough per-seed
/// variation that any aggregation-order difference would show up in the
/// floating-point statistics.
scenario_outcome synthetic_trial(std::size_t, std::uint64_t seed) {
    plurality::sim::rng gen(seed);
    scenario_outcome out;
    out.converged = out.correct = gen.next_below(10) < 7;
    out.parallel_time = 100.0 * gen.next_unit() + 1.0;
    out.interactions = 1000 + gen.next_below(1000);
    return out;
}

/// The summary of a `trials`-trial batch of `synthetic_trial` on `threads`
/// workers.
scenario_run_summary synthetic_batch(std::size_t threads, std::size_t trials,
                                     std::uint64_t base_seed) {
    return run_trials(trials, base_seed, trial_executor{threads}, synthetic_trial).summary;
}

/// Bitwise summary equality (EXPECT_EQ on doubles is exact comparison, which
/// is the point: the contract is bit-for-bit, not approximate).
void expect_identical(const scenario_run_summary& a, const scenario_run_summary& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.total_interactions, b.total_interactions);
    EXPECT_EQ(a.time_stats.count, b.time_stats.count);
    EXPECT_EQ(a.time_stats.mean, b.time_stats.mean);
    EXPECT_EQ(a.time_stats.stddev, b.time_stats.stddev);
    EXPECT_EQ(a.time_stats.min, b.time_stats.min);
    EXPECT_EQ(a.time_stats.max, b.time_stats.max);
    EXPECT_EQ(a.time_stats.median, b.time_stats.median);
}

TEST(TrialExecutor, ParallelSummaryMatchesSequentialBitForBit) {
    constexpr std::size_t trials = 64;
    constexpr std::uint64_t base_seed = 0xabcdef;
    const auto sequential = synthetic_batch(1, trials, base_seed);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        expect_identical(sequential, synthetic_batch(threads, trials, base_seed));
    }
}

TEST(TrialExecutor, ParallelProtocolRunMatchesSequentialBitForBit) {
    // The real workload: full tournament-protocol executions.  Small n keeps
    // the test quick; 8 trials still cross the thread-count boundary.
    const auto cfg = plurality::core::protocol_config::make(
        plurality::core::algorithm_mode::ordered, 256, 3);
    const auto dist = plurality::workload::make_bias_one(256, 3);
    const auto body = [&](std::size_t, std::uint64_t seed) {
        const auto r = plurality::core::run_to_consensus(cfg, dist, seed);
        scenario_outcome out;
        out.converged = out.correct = r.correct;
        out.parallel_time = r.parallel_time;
        out.interactions = r.interactions;
        return out;
    };
    const auto sequential = run_trials(8, 0x9e14, trial_executor{1}, body).summary;
    const auto parallel = run_trials(8, 0x9e14, trial_executor{8}, body).summary;
    expect_identical(sequential, parallel);
}

TEST(TrialExecutor, FewerTrialsThanThreads) {
    const auto result = run_trials(3, 77, trial_executor{8}, synthetic_trial);
    EXPECT_EQ(result.summary.trials, 3u);
    EXPECT_EQ(result.threads, 3u);
    expect_identical(result.summary, synthetic_batch(1, 3, 77));
}

TEST(TrialExecutor, ZeroAndOneTrials) {
    const auto empty = synthetic_batch(4, 0, 5);
    EXPECT_EQ(empty.trials, 0u);
    EXPECT_EQ(empty.correct, 0u);
    EXPECT_DOUBLE_EQ(empty.success_rate(), 0.0);

    const auto single = synthetic_batch(4, 1, 5);
    EXPECT_EQ(single.trials, 1u);
    expect_identical(single, synthetic_batch(1, 1, 5));
}

TEST(TrialExecutor, ZeroThreadsResolvesToHardware) {
    const trial_executor executor{0};
    EXPECT_GE(executor.threads(), 1u);
}

TEST(TrialExecutor, EveryTrialIndexRunsExactlyOnce) {
    constexpr std::size_t trials = 100;
    std::vector<std::atomic<int>> hits(trials);
    const auto result =
        run_trials(trials, 13, trial_executor{4}, [&](std::size_t index, std::uint64_t seed) {
            // Each index comes with its own seed, and runs once.
            EXPECT_EQ(seed, plurality::sim::derive_seed(13, index));
            hits[index].fetch_add(1);
            return scenario_outcome{};
        });
    EXPECT_EQ(result.summary.trials, trials);
    for (std::size_t i = 0; i < trials; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TrialExecutor, PropagatesTrialExceptions) {
    const auto boom = [](std::size_t index, std::uint64_t) -> scenario_outcome {
        if (index == 5) throw std::runtime_error("trial 5 died");
        return {};
    };
    EXPECT_THROW((void)run_trials(32, 21, trial_executor{4}, boom), std::runtime_error);
    EXPECT_THROW((void)run_trials(32, 21, trial_executor{1}, boom), std::runtime_error);
}

/// The thread each trial of a `trials`-slot batch ran on, by slot.  Each
/// trial holds its thread for a millisecond, so every worker a batch starts
/// gets to claim trials, and checks that it was handed its slot's index
/// beside that index's seed.
std::vector<std::thread::id> trial_threads(const trial_executor& executor, std::size_t trials) {
    std::vector<std::thread::id> ids(trials);
    executor.map(std::span{ids}, 17, [](std::size_t index, std::uint64_t seed) {
        EXPECT_EQ(seed, plurality::sim::derive_seed(17, index));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::this_thread::get_id();
    });
    return ids;
}

std::size_t distinct(const std::vector<std::thread::id>& ids) {
    return std::set<std::thread::id>(ids.begin(), ids.end()).size();
}

TEST(TrialExecutor, StartsAtMostOneWorkerPerTrial) {
    EXPECT_LE(distinct(trial_threads(trial_executor{8}, 3)), 3u);
    EXPECT_LE(distinct(trial_threads(trial_executor{2}, 64)), 2u);
    // A batch of one runs on the calling thread, and a batch of none runs
    // nothing at all.
    EXPECT_EQ(trial_threads(trial_executor{8}, 1), std::vector{std::this_thread::get_id()});
    std::vector<int> none;
    int calls = 0;
    trial_executor{8}.map(std::span{none}, 17,
                          [&calls](std::size_t, std::uint64_t) { return ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(TrialExecutor, ExecutorIsReusableAcrossRuns) {
    const trial_executor executor{4};
    const auto first = run_trials(16, 3, executor, synthetic_trial).summary;
    const auto second = run_trials(16, 3, executor, synthetic_trial).summary;
    expect_identical(first, second);
}

}  // namespace
