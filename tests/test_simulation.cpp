// Unit tests for the generic simulation driver (sim/simulation.h) and the
// multi-trial aggregation of the batch runner (scenario::run_trials) on a
// sequential trial executor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "scenario/runner.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "test_support.h"

namespace {

using plurality::scenario::run_trials;
using plurality::sim::rng;
using plurality::sim::simulation;
using plurality::sim::trial_executor;
using plurality::test::outcome;

/// Toy protocol: every interaction increments both agents' counters.
struct counting_protocol {
    struct agent_t {
        std::uint64_t meetings = 0;
    };
    void interact(agent_t& a, agent_t& b, rng&) const noexcept {
        ++a.meetings;
        ++b.meetings;
    }
};

TEST(Simulation, StepCountsInteractions) {
    simulation<counting_protocol> s{counting_protocol{}, std::vector<counting_protocol::agent_t>(10),
                                    1};
    for (int i = 0; i < 25; ++i) s.step();
    EXPECT_EQ(s.interactions(), 25u);
    EXPECT_DOUBLE_EQ(s.parallel_time(), 2.5);
}

TEST(Simulation, EveryInteractionTouchesTwoAgents) {
    simulation<counting_protocol> s{counting_protocol{}, std::vector<counting_protocol::agent_t>(8),
                                    2};
    s.run_for(1000);
    std::uint64_t total = 0;
    for (const auto& a : s.agents()) total += a.meetings;
    EXPECT_EQ(total, 2000u);
}

TEST(Simulation, DeterministicForFixedSeed) {
    auto run = [](std::uint64_t seed) {
        simulation<counting_protocol> s{counting_protocol{},
                                        std::vector<counting_protocol::agent_t>(16), seed};
        s.run_for(500);
        std::vector<std::uint64_t> meetings;
        for (const auto& a : s.agents()) meetings.push_back(a.meetings);
        return meetings;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(MultiTrial, AggregatesSuccessesAndTimes) {
    const auto summary =
        run_trials(100, 42, trial_executor{1},
                   [](std::size_t, std::uint64_t) { return outcome(true, 10.0); })
            .summary;
    EXPECT_EQ(summary.trials, 100u);
    EXPECT_EQ(summary.correct, 100u);
    EXPECT_DOUBLE_EQ(summary.success_rate(), 1.0);
    EXPECT_DOUBLE_EQ(summary.time_stats.mean, 10.0);
}

TEST(MultiTrial, DistinctSeedsPerTrial) {
    std::vector<std::uint64_t> seeds;
    (void)run_trials(50, 7, trial_executor{1}, [&seeds](std::size_t, std::uint64_t seed) {
        seeds.push_back(seed);
        return plurality::scenario::scenario_outcome{};
    });
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(MultiTrial, FailedTrialsExcludedFromTimeStats) {
    const auto summary = run_trials(10, 1, trial_executor{1},
                                    [](std::size_t, std::uint64_t seed) {
                                        const bool success = (seed % 2) == 0;
                                        return outcome(success, success ? 5.0 : 1000.0);
                                    })
                             .summary;
    EXPECT_LT(summary.correct, 10u);
    if (summary.correct > 0) {
        EXPECT_DOUBLE_EQ(summary.time_stats.mean, 5.0);
    }
}

TEST(MultiTrial, NonConvergedTrialsStayOutOfTimeStats) {
    // A converged trial counts in time_stats whether or not it is correct;
    // one that ran out of budget never does.
    const auto summary = run_trials(9, 3, trial_executor{1}, [](std::size_t i, std::uint64_t) {
                             plurality::scenario::scenario_outcome out;
                             out.converged = i % 3 != 0;
                             out.correct = i % 3 == 1;
                             out.parallel_time = out.converged ? 5.0 : 1000.0;
                             return out;
                         }).summary;
    EXPECT_EQ(summary.converged, 6u);
    EXPECT_EQ(summary.correct, 3u);
    EXPECT_EQ(summary.time_stats.count, 6u);
    EXPECT_DOUBLE_EQ(summary.time_stats.mean, 5.0);
    EXPECT_DOUBLE_EQ(summary.time_stats.max, 5.0);
}

}  // namespace
