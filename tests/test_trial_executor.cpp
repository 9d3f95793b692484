// Unit tests for the parallel trial executor (sim/trial_executor.h).
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
#include "sim/rng.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using plurality::sim::trial_executor;
using plurality::sim::trial_outcome;
using plurality::sim::trial_summary;

/// A trial body that is a pure function of its seed, with enough per-seed
/// variation that any aggregation-order difference would show up in the
/// floating-point statistics.
trial_outcome synthetic_trial(std::uint64_t seed) {
    plurality::sim::rng gen(seed);
    trial_outcome out;
    out.success = gen.next_below(10) < 7;
    out.parallel_time = 100.0 * gen.next_unit() + 1.0;
    out.interactions = 1000 + gen.next_below(1000);
    return out;
}

/// Bitwise summary equality (EXPECT_EQ on doubles is exact comparison, which
/// is the point: the contract is bit-for-bit, not approximate).
void expect_identical(const trial_summary& a, const trial_summary& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.successes, b.successes);
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
    const auto sequential = trial_executor{1}.run(trials, base_seed, synthetic_trial);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const auto parallel = trial_executor{threads}.run(trials, base_seed, synthetic_trial);
        expect_identical(sequential, parallel);
    }
}

TEST(TrialExecutor, ParallelProtocolRunMatchesSequentialBitForBit) {
    // The real workload: full tournament-protocol executions.  Small n keeps
    // the test quick; 8 trials still cross the thread-count boundary.
    const auto cfg = plurality::core::protocol_config::make(
        plurality::core::algorithm_mode::ordered, 256, 3);
    const auto dist = plurality::workload::make_bias_one(256, 3);
    const auto body = [&](std::uint64_t seed) {
        const auto r = plurality::core::run_to_consensus(cfg, dist, seed);
        trial_outcome out;
        out.success = r.correct;
        out.parallel_time = r.parallel_time;
        out.interactions = r.interactions;
        return out;
    };
    const auto sequential = trial_executor{1}.run(8, 0x9e14, body);
    const auto parallel = trial_executor{8}.run(8, 0x9e14, body);
    expect_identical(sequential, parallel);
}

TEST(TrialExecutor, FewerTrialsThanThreads) {
    const auto summary = trial_executor{8}.run(3, 77, synthetic_trial);
    EXPECT_EQ(summary.trials, 3u);
    expect_identical(summary, trial_executor{1}.run(3, 77, synthetic_trial));
}

TEST(TrialExecutor, ZeroAndOneTrials) {
    const auto empty = trial_executor{4}.run(0, 5, synthetic_trial);
    EXPECT_EQ(empty.trials, 0u);
    EXPECT_EQ(empty.successes, 0u);
    EXPECT_DOUBLE_EQ(empty.success_rate(), 0.0);

    const auto single = trial_executor{4}.run(1, 5, synthetic_trial);
    EXPECT_EQ(single.trials, 1u);
    expect_identical(single, trial_executor{1}.run(1, 5, synthetic_trial));
}

TEST(TrialExecutor, ZeroThreadsResolvesToHardware) {
    const trial_executor executor{0};
    EXPECT_GE(executor.threads(), 1u);
}

TEST(TrialExecutor, EveryTrialIndexRunsExactlyOnce) {
    constexpr std::size_t trials = 100;
    std::vector<std::atomic<int>> hits(trials);
    const auto summary = trial_executor{4}.run(trials, 13, [&](std::uint64_t seed) {
        // Recover the index from the seed: derive_seed is injective over the
        // small index range, so match against precomputed values.
        for (std::size_t i = 0; i < trials; ++i) {
            if (plurality::sim::derive_seed(13, i) == seed) {
                hits[i].fetch_add(1);
                break;
            }
        }
        return trial_outcome{};
    });
    EXPECT_EQ(summary.trials, trials);
    for (std::size_t i = 0; i < trials; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TrialExecutor, PropagatesTrialExceptions) {
    const auto boom = [](std::uint64_t seed) -> trial_outcome {
        if (seed == plurality::sim::derive_seed(21, 5)) throw std::runtime_error("trial 5 died");
        return {};
    };
    EXPECT_THROW((void)trial_executor{4}.run(32, 21, boom), std::runtime_error);
    EXPECT_THROW((void)trial_executor{1}.run(32, 21, boom), std::runtime_error);
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
    const auto first = executor.run(16, 3, synthetic_trial);
    const auto second = executor.run(16, 3, synthetic_trial);
    expect_identical(first, second);
}

}  // namespace
