// Unit tests for the averaging exact majority (majority/averaging_majority.h),
// the substrate of the tournament's match phase (Appendix A).
#include <gtest/gtest.h>

#include <cmath>

#include "majority/averaging_majority.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "test_support.h"

namespace {

using namespace plurality::majority;
using plurality::sim::simulation;
using plurality::sim::converge;
using plurality::sim::trial_executor;
using plurality::test::expanded;

TEST(AveragingMajority, DefaultAmplificationIsLargeEnough) {
    for (std::uint32_t n : {16u, 100u, 1024u, 100000u}) {
        EXPECT_GE(default_amplification(n), 8 * static_cast<std::int64_t>(n));
    }
}

TEST(AveragingMajority, AgentVerdictThresholds) {
    EXPECT_EQ(agent_verdict({5}, 3), majority_verdict::plus);
    EXPECT_EQ(agent_verdict({3}, 3), majority_verdict::plus);
    EXPECT_EQ(agent_verdict({2}, 3), majority_verdict::tie);
    EXPECT_EQ(agent_verdict({-2}, 3), majority_verdict::tie);
    EXPECT_EQ(agent_verdict({-3}, 3), majority_verdict::minus);
}

TEST(AveragingMajority, PopulationVerdictRequiresUnanimity) {
    std::vector<averaging_agent> agents{{10}, {10}, {-10}};
    EXPECT_EQ(population_verdict(agents), majority_verdict::undecided);
    agents[2].load = 9;
    EXPECT_EQ(population_verdict(agents), majority_verdict::plus);
}

// GoogleTest names a parameter without operator<< by its raw bytes, so the
// struct carries its padding as zeroed members: uninitialised padding made
// the test's name change from build to build.
struct bias_case {
    std::int32_t plus_extra;  ///< plus agents minus minus agents
    majority_verdict expected;
    std::uint8_t zero_padding[3]{};
};

class AveragingBiasSweep : public ::testing::TestWithParam<bias_case> {};

TEST_P(AveragingBiasSweep, ExactDecisionWithinLogTime) {
    const std::int32_t extra = GetParam().plus_extra;
    const majority_verdict expected = GetParam().expected;
    const std::uint32_t n = 2048;
    const std::uint32_t base = n / 4;
    const std::uint32_t plus = base + (extra > 0 ? extra : 0);
    const std::uint32_t minus = base + (extra < 0 ? -extra : 0);
    const std::uint32_t zeros = n - plus - minus;
    const std::int64_t amp = default_amplification(n);

    const auto summary = trial_executor{1}.run(
        20, 31 + static_cast<std::uint64_t>(extra + 100), [&](std::uint64_t seed) {
            auto agents = expanded(averaging_census(plus, minus, zeros, amp), seed);
            simulation<averaging_majority_protocol> s{averaging_majority_protocol{},
                                                      std::move(agents), seed};
            const auto done = [](const auto& sim) {
                return population_verdict(sim.agents()) != majority_verdict::undecided;
            };
            const auto finished = converge(s, done, 600ull * n);
            plurality::sim::trial_outcome out;
            out.success =
                finished.converged && population_verdict(s.agents()) == expected;
            out.parallel_time = s.parallel_time();
            return out;
        });
    EXPECT_EQ(summary.successes, summary.trials)
        << "extra=" << extra << " expected verdict not reached in every trial";
    EXPECT_LT(summary.time_stats.mean, 25.0 * std::log2(n));
}

INSTANTIATE_TEST_SUITE_P(Biases, AveragingBiasSweep,
                         ::testing::Values(bias_case{1, majority_verdict::plus},
                                           bias_case{-1, majority_verdict::minus},
                                           bias_case{0, majority_verdict::tie},
                                           bias_case{7, majority_verdict::plus},
                                           bias_case{-64, majority_verdict::minus}));

TEST(AveragingMajority, SumInvariant) {
    const std::int64_t amp = default_amplification(512);
    auto agents = expanded(averaging_census(100, 99, 313, amp), 3);
    simulation<averaging_majority_protocol> s{averaging_majority_protocol{}, std::move(agents), 3};
    s.run_for(100000);
    std::int64_t sum = 0;
    for (const auto& a : s.agents()) sum += a.load;
    EXPECT_EQ(sum, amp);
}

TEST(AveragingMajority, SingleVoterAmongZeros) {
    // The bias-1 tournament case: exactly one recruited player.
    const std::uint32_t n = 1024;
    const std::int64_t amp = default_amplification(n);
    auto agents = expanded(averaging_census(1, 0, n - 1, amp), 9);
    simulation<averaging_majority_protocol> s{averaging_majority_protocol{}, std::move(agents), 9};
    const auto done = [](const auto& sim) {
        return population_verdict(sim.agents()) != majority_verdict::undecided;
    };
    const auto finished = converge(s, done, 600ull * n);
    ASSERT_TRUE(finished.converged);
    EXPECT_EQ(population_verdict(s.agents()), majority_verdict::plus);
}

}  // namespace
