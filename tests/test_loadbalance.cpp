// Unit tests for floor/ceil averaging load balancing (loadbalance/), the
// cancellation-phase substrate (Algorithm 4, line 8; [12, 28]).
#include <gtest/gtest.h>

#include <cmath>

#include <numeric>
#include <vector>

#include "loadbalance/load_balancer.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using namespace plurality::loadbalance;

TEST(LoadBalance, AveragePairExactForEvenSum) {
    std::int64_t a = 10;
    std::int64_t b = 4;
    average_pair(a, b);
    EXPECT_EQ(a, 7);
    EXPECT_EQ(b, 7);
}

TEST(LoadBalance, AveragePairFloorCeilForOddSum) {
    std::int64_t a = 10;
    std::int64_t b = 5;
    average_pair(a, b);
    EXPECT_EQ(a, 7);  // initiator takes the floor
    EXPECT_EQ(b, 8);  // responder the ceiling
}

TEST(LoadBalance, AveragePairNegativeValuesRoundTowardMinusInfinity) {
    std::int64_t a = -3;
    std::int64_t b = 0;
    average_pair(a, b);
    EXPECT_EQ(a, -2);  // floor(-1.5) = -2, not trunc(-1.5) = -1
    EXPECT_EQ(b, -1);
    EXPECT_EQ(a + b, -3);
}

TEST(LoadBalance, FloorDiv2MatchesMathematicalFloor) {
    EXPECT_EQ(floor_div2(5), 2);
    EXPECT_EQ(floor_div2(-5), -3);
    EXPECT_EQ(floor_div2(0), 0);
    EXPECT_EQ(floor_div2(-1), -1);
}

TEST(LoadBalance, SumIsInvariant) {
    plurality::sim::rng gen(17);
    std::vector<load_agent> agents(64);
    for (auto& a : agents) a.load = static_cast<std::int64_t>(gen.next_below(41)) - 20;
    const std::int64_t before = total_load(agents);

    plurality::sim::simulation<load_balance_protocol> s{load_balance_protocol{},
                                                        std::move(agents), 3};
    s.run_for(10000);
    EXPECT_EQ(total_load(s), before);
}

TEST(LoadBalance, DiscrepancyHelper) {
    std::vector<load_agent> agents{{5}, {-2}, {3}};
    EXPECT_EQ(discrepancy(agents), 7);
    EXPECT_EQ(discrepancy(std::vector<load_agent>{}), 0);
}

TEST(LoadBalance, ReachesSmallDiscrepancy) {
    std::vector<std::int64_t> loads(1024, 0);
    loads[0] = 1000;  // one hot spot
    const double t = measure_balancing_time(loads, 2, 500.0, 11);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 200.0);
}

TEST(LoadBalance, BiasOneLeavesSingleUnit) {
    // The cancellation-phase configuration at bias 1: one +1 among zeros.
    // After balancing, the discrepancy is 1 and the sum is still 1.
    std::vector<load_agent> agents(512);
    agents[0].load = 1;
    plurality::sim::simulation<load_balance_protocol> s{load_balance_protocol{},
                                                        std::move(agents), 23};
    s.run_for(512 * 100);
    EXPECT_EQ(total_load(s), 1);
    EXPECT_LE(discrepancy(s), 1);
}

TEST(LoadBalance, OpposingBlocksCancelToSmallResidue) {
    // ±token blocks as produced by the setup phase: defender +10s,
    // challenger -10s with one extra defender unit.
    std::vector<load_agent> agents(400);
    for (int i = 0; i < 50; ++i) agents[i].load = 10;
    for (int i = 50; i < 100; ++i) agents[i].load = -10;
    agents[100].load = 1;
    plurality::sim::simulation<load_balance_protocol> s{load_balance_protocol{},
                                                        std::move(agents), 31};
    s.run_for(400 * 200);
    EXPECT_EQ(total_load(s), 1);
    EXPECT_LE(discrepancy(s), 2);
}

class BalancingSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BalancingSweep, DiscrepancyTwoWithinLogTime) {
    const std::uint32_t n = GetParam();
    plurality::sim::rng gen(n);
    std::vector<std::int64_t> loads(n);
    for (auto& l : loads) l = static_cast<std::int64_t>(gen.next_below(21)) - 10;
    const double t = measure_balancing_time(loads, 2, 400.0, 7 + n);
    ASSERT_GT(t, 0.0) << "balancing did not reach discrepancy 2 in budget";
    EXPECT_LT(t, 30.0 * std::log2(static_cast<double>(n)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BalancingSweep,
                         ::testing::Values(128u, 256u, 512u, 1024u, 2048u, 4096u));

TEST(LoadBalance, MeasureRejectsTinyPopulations) {
    EXPECT_THROW((void)measure_balancing_time(std::vector<std::int64_t>{1}, 1, 10.0, 0),
                 std::invalid_argument);
}

}  // namespace
