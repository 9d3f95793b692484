// Unit tests for the opinion-distribution generators (workload/).
#include <gtest/gtest.h>

#include <numeric>

#include "sim/census_store.h"
#include "sim/rng.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality::workload;
using plurality::sim::census_entry;
using plurality::sim::expand_census;
using plurality::sim::rng;

TEST(Workload, BiasOneBasics) {
    const auto dist = make_bias_one(1000, 8);
    EXPECT_EQ(dist.n(), 1000u);
    EXPECT_EQ(dist.k(), 8u);
    EXPECT_EQ(dist.bias(), 1u);
    EXPECT_TRUE(dist.plurality_unique());
    EXPECT_EQ(dist.plurality_opinion(), 1u);
}

TEST(Workload, BiasOneEveryOpinionPresent) {
    const auto dist = make_bias_one(100, 10);
    for (std::uint32_t i = 1; i <= 10; ++i) EXPECT_GE(dist.support_of(i), 1u);
}

TEST(Workload, BiasOneCustomBias) {
    const auto dist = make_bias_one(1000, 4, 17);
    EXPECT_EQ(dist.bias(), 17u);
    EXPECT_EQ(dist.plurality_opinion(), 1u);
}

TEST(Workload, BiasOneSingleOpinion) {
    const auto dist = make_bias_one(64, 1);
    EXPECT_EQ(dist.k(), 1u);
    EXPECT_EQ(dist.support_of(1), 64u);
    EXPECT_EQ(dist.plurality_opinion(), 1u);
}

TEST(Workload, BiasOneRejectsInfeasible) {
    EXPECT_THROW((void)make_bias_one(4, 0), std::invalid_argument);
    EXPECT_THROW((void)make_bias_one(3, 5), std::invalid_argument);
}

class WorkloadSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(WorkloadSweep, BiasOneAlwaysMinimal) {
    const auto [n, k] = GetParam();
    const auto dist = make_bias_one(n, k);
    EXPECT_EQ(dist.n(), n);
    EXPECT_EQ(dist.k(), k);
    // k = 2 with even n cannot realize an odd gap; the generator then uses
    // the smallest feasible bias, 2.
    const bool parity_blocked = k == 2 && n % 2 == 0;
    EXPECT_EQ(dist.bias(), parity_blocked ? 2u : 1u);
    EXPECT_TRUE(dist.plurality_unique());
    const auto& support = dist.support();
    EXPECT_EQ(std::accumulate(support.begin(), support.end(), 0u), n);
}

INSTANTIATE_TEST_SUITE_P(
    NKGrid, WorkloadSweep,
    ::testing::Combine(::testing::Values(100u, 256u, 999u, 4096u),
                       ::testing::Values(2u, 3u, 7u, 16u, 50u)));

TEST(Workload, UniformRandomRepairsTies) {
    rng gen(1);
    for (int trial = 0; trial < 50; ++trial) {
        const auto dist = make_uniform_random(200, 10, gen);
        EXPECT_TRUE(dist.plurality_unique());
        EXPECT_EQ(dist.n(), 200u);
    }
}

TEST(Workload, ZipfIsHeavyHeaded) {
    rng gen(2);
    const auto dist = make_zipf(10000, 16, 1.0, gen);
    EXPECT_EQ(dist.n(), 10000u);
    EXPECT_TRUE(dist.plurality_unique());
    // The heaviest opinion should dominate the lightest by a wide margin.
    EXPECT_GT(dist.x_max(), 4 * dist.support_of(16));
}

TEST(Workload, DominantPlusDust) {
    const auto dist = make_dominant_plus_dust(10000, 0.6, 20);
    EXPECT_EQ(dist.k(), 21u);
    EXPECT_EQ(dist.plurality_opinion(), 1u);
    EXPECT_GE(dist.support_of(1), 5999u);
    for (std::uint32_t i = 2; i <= 21; ++i) EXPECT_LE(dist.support_of(i), 201u);
}

TEST(Workload, DominantPlusDustRejectsBadFraction) {
    EXPECT_THROW((void)make_dominant_plus_dust(100, 0.0, 5), std::invalid_argument);
    EXPECT_THROW((void)make_dominant_plus_dust(100, 1.0, 5), std::invalid_argument);
}

TEST(Workload, TwoHeavyPlusDust) {
    const auto dist = make_two_heavy_plus_dust(10000, 1, 32);
    EXPECT_EQ(dist.k(), 34u);
    EXPECT_EQ(dist.bias(), 1u);
    EXPECT_EQ(dist.plurality_opinion(), 1u);
    // Heavy opinions dwarf the dust.
    EXPECT_GT(dist.support_of(2), dist.support_of(3) * 10);
}

/// The distribution as a census whose states are the opinion values
/// themselves, one entry per opinion.
std::vector<census_entry<std::uint32_t>> opinion_census(const opinion_distribution& dist) {
    std::vector<census_entry<std::uint32_t>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion)
        entries.push_back({opinion, dist.support_of(opinion)});
    return entries;
}

TEST(Workload, AgentOpinionsMatchSupports) {
    rng gen(3);
    const auto dist = make_bias_one(500, 5);
    const auto opinions = expand_census(opinion_census(dist), gen);
    ASSERT_EQ(opinions.size(), 500u);
    std::vector<std::uint32_t> counts(6, 0);
    for (auto o : opinions) {
        ASSERT_GE(o, 1u);
        ASSERT_LE(o, 5u);
        ++counts[o];
    }
    for (std::uint32_t i = 1; i <= 5; ++i) EXPECT_EQ(counts[i], dist.support_of(i));
}

TEST(Workload, AgentOpinionsShuffled) {
    rng gen(4);
    const auto dist = make_bias_one(1000, 2);
    const auto opinions = expand_census(opinion_census(dist), gen);
    // The first half should not be (almost) all opinion 1, as it would be in
    // the unshuffled expansion.
    std::size_t ones_in_front = 0;
    for (std::size_t i = 0; i < 500; ++i)
        if (opinions[i] == 1) ++ones_in_front;
    EXPECT_GT(ones_in_front, 150u);
    EXPECT_LT(ones_in_front, 350u);
}

TEST(Workload, ConstructorRejectsEmpty) {
    EXPECT_THROW((void)opinion_distribution(std::vector<std::uint32_t>{}), std::invalid_argument);
    EXPECT_THROW((void)opinion_distribution(std::vector<std::uint32_t>{0, 0}),
                 std::invalid_argument);
}

TEST(Workload, BiasOfSingleOpinionIsN) {
    const opinion_distribution dist{std::vector<std::uint32_t>{42}};
    EXPECT_EQ(dist.bias(), 42u);
}

}  // namespace
