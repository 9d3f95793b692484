// Unit tests for the cancellation/doubling exact majority (majority/).
#include <gtest/gtest.h>

#include <cmath>

#include "majority/cancel_double.h"
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
using plurality::test::outcome;

TEST(CancelDouble, CancelRule) {
    cancel_double_protocol proto{10};
    plurality::sim::rng gen(1);
    cancel_double_agent p{1, 3};
    cancel_double_agent m{-1, 3};
    proto.interact(p, m, gen);
    EXPECT_EQ(p.sign, 0);
    EXPECT_EQ(m.sign, 0);
}

TEST(CancelDouble, AdjacentLevelCancelConsumesDeeperToken) {
    cancel_double_protocol proto{10};
    plurality::sim::rng gen(2);
    cancel_double_agent p{1, 2};
    cancel_double_agent m{-1, 3};
    proto.interact(p, m, gen);
    // 2^-2 - 2^-3 = 2^-3: the shallower token survives one level deeper.
    EXPECT_EQ(p.sign, 1);
    EXPECT_EQ(p.level, 3);
    EXPECT_EQ(m.sign, 0);
    // Symmetric orientation.
    cancel_double_agent p2{1, 5};
    cancel_double_agent m2{-1, 4};
    proto.interact(p2, m2, gen);
    EXPECT_EQ(p2.sign, 0);
    EXPECT_EQ(m2.sign, -1);
    EXPECT_EQ(m2.level, 5);
}

TEST(CancelDouble, NoCancelAcrossDistantLevels) {
    cancel_double_protocol proto{10};
    plurality::sim::rng gen(2);
    cancel_double_agent p{1, 2};
    cancel_double_agent m{-1, 7};
    proto.interact(p, m, gen);
    EXPECT_EQ(p.sign, 1);
    EXPECT_EQ(m.sign, -1);
}

TEST(CancelDouble, SameSignSameLevelMergesUp) {
    cancel_double_protocol proto{10};
    plurality::sim::rng gen(3);
    cancel_double_agent a{1, 4};
    cancel_double_agent b{1, 4};
    proto.interact(a, b, gen);
    EXPECT_EQ(a.sign, 1);
    EXPECT_EQ(a.level, 3);
    EXPECT_EQ(b.sign, 0);
    // Level 0 cannot merge further.
    cancel_double_agent c{-1, 0};
    cancel_double_agent d{-1, 0};
    proto.interact(c, d, gen);
    EXPECT_EQ(c.sign, -1);
    EXPECT_EQ(d.sign, -1);
}

TEST(CancelDouble, SplitRule) {
    cancel_double_protocol proto{10};
    plurality::sim::rng gen(3);
    cancel_double_agent p{1, 4};
    cancel_double_agent z{0, 0};
    proto.interact(p, z, gen);
    EXPECT_EQ(p.sign, 1);
    EXPECT_EQ(z.sign, 1);
    EXPECT_EQ(p.level, 5);
    EXPECT_EQ(z.level, 5);
}

TEST(CancelDouble, NoSplitAtLevelCap) {
    cancel_double_protocol proto{4};
    plurality::sim::rng gen(4);
    cancel_double_agent p{1, 4};
    cancel_double_agent z{0, 0};
    proto.interact(p, z, gen);
    EXPECT_EQ(z.sign, 0);
    EXPECT_EQ(p.level, 4);
}

TEST(CancelDouble, ScaledTokenSumInvariant) {
    const std::uint32_t n = 1024;
    const std::uint8_t cap = default_level_cap(n);
    auto agents = expanded(cancel_double_census(n / 2 + 1, n / 2 - 1, 0), 5);
    const std::int64_t before = scaled_token_sum(agents, cap);
    simulation<cancel_double_protocol> s{cancel_double_protocol{cap}, std::move(agents), 5};
    s.run_for(200ull * n);
    EXPECT_EQ(scaled_token_sum(s, cap), before);
    EXPECT_EQ(before, std::int64_t{2} << cap);  // bias 2, scaled
}

class CancelDoubleBiasSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(CancelDoubleBiasSweep, DecidesExactMajority) {
    const std::int32_t extra = GetParam();
    const std::uint32_t n = 1024;
    const std::uint32_t base = n / 3;
    const std::uint32_t plus = base + (extra > 0 ? extra : 0);
    const std::uint32_t minus = base + (extra < 0 ? -extra : 0);
    const std::uint8_t cap = default_level_cap(n);

    const auto body = [&](std::size_t, std::uint64_t seed) {
        auto agents = expanded(cancel_double_census(plus, minus, n - plus - minus), seed);
        simulation<cancel_double_protocol> s{cancel_double_protocol{cap}, std::move(agents),
                                             seed};
        const auto done = [](const auto& sim) { return decided_sign(sim) != 0; };
        const double budget = 60.0 * std::log2(n) * std::log2(n);
        const auto finished = converge(s, done, static_cast<std::uint64_t>(budget * n));
        const int want = extra > 0 ? 1 : -1;
        return outcome(finished.converged && decided_sign(s) == want, s.parallel_time());
    };
    const auto summary = plurality::scenario::run_trials(
                             15, 900 + static_cast<std::uint64_t>(extra + 50), trial_executor{1},
                             body)
                             .summary;
    EXPECT_EQ(summary.correct, summary.trials) << "bias " << extra;
}

INSTANTIATE_TEST_SUITE_P(Biases, CancelDoubleBiasSweep, ::testing::Values(1, -1, 5, -5, 100));

TEST(CancelDouble, StateCountIsLogarithmic) {
    // 3 signs x (cap+1) levels: the protocol's entire state space.
    const std::uint8_t cap = default_level_cap(1 << 16);
    EXPECT_LE(3 * (cap + 1), 3 * (16 + 3));
}

}  // namespace
