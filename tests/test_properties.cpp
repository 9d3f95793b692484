// Cross-cutting property tests: randomized invariant sweeps over the
// substrates and cheap end-to-end edge cases that the per-module suites do
// not cover.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "clocks/leaderless_clock.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "loadbalance/load_balancer.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "sim/convergence.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"
#include "test_support.h"

namespace {

using namespace plurality;

// -- averaging: the pairwise step is exactly sum-preserving and contracts --

TEST(Properties, AveragePairRandomized) {
    sim::rng gen(1);
    for (int i = 0; i < 100000; ++i) {
        const auto a0 = static_cast<std::int64_t>(gen.next_below(2000001)) - 1000000;
        const auto b0 = static_cast<std::int64_t>(gen.next_below(2000001)) - 1000000;
        std::int64_t a = a0;
        std::int64_t b = b0;
        loadbalance::average_pair(a, b);
        ASSERT_EQ(a + b, a0 + b0);
        ASSERT_LE(std::abs(a - b), 1);
        ASSERT_GE(a, std::min(a0, b0));
        ASSERT_LE(std::max(a, b), std::max(a0, b0) + 0);
    }
}

// -- cancel-double: every rule preserves the scaled token sum --------------

TEST(Properties, CancelDoubleRulesPreserveTokenSum) {
    sim::rng gen(2);
    const std::uint8_t cap = 12;
    majority::cancel_double_protocol proto{cap};
    for (int i = 0; i < 100000; ++i) {
        majority::cancel_double_agent a{
            static_cast<std::int8_t>(static_cast<int>(gen.next_below(3)) - 1),
            static_cast<std::uint8_t>(gen.next_below(cap + 1))};
        majority::cancel_double_agent b{
            static_cast<std::int8_t>(static_cast<int>(gen.next_below(3)) - 1),
            static_cast<std::uint8_t>(gen.next_below(cap + 1))};
        std::vector<majority::cancel_double_agent> pair{a, b};
        const auto before = majority::scaled_token_sum(pair, cap);
        proto.interact(pair[0], pair[1], gen);
        ASSERT_EQ(majority::scaled_token_sum(pair, cap), before)
            << "rule broke conservation for signs " << int(a.sign) << "," << int(b.sign)
            << " levels " << int(a.level) << "," << int(b.level);
        ASSERT_LE(pair[0].level, cap);
        ASSERT_LE(pair[1].level, cap);
    }
}

// -- leaderless clock: ticks move exactly one counter by exactly one -------

TEST(Properties, LeaderlessTickRandomized) {
    sim::rng gen(3);
    for (std::uint32_t psi : {8u, 17u, 40u, 101u}) {
        for (int i = 0; i < 20000; ++i) {
            std::uint32_t a = static_cast<std::uint32_t>(gen.next_below(psi));
            std::uint32_t b = static_cast<std::uint32_t>(gen.next_below(psi));
            const std::uint32_t a0 = a;
            const std::uint32_t b0 = b;
            (void)clocks::leaderless_tick(a, b, psi, gen);
            const bool a_moved = a != a0;
            const bool b_moved = b != b0;
            ASSERT_NE(a_moved, b_moved);
            if (a_moved) {
                ASSERT_EQ(a, (a0 + 1) % psi);
            }
            if (b_moved) {
                ASSERT_EQ(b, (b0 + 1) % psi);
            }
        }
    }
}

// -- workload generators: structural invariants over a random sweep --------

TEST(Properties, GeneratorsAlwaysProduceValidDistributions) {
    sim::rng gen(4);
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t n = 64 + static_cast<std::uint32_t>(gen.next_below(4000));
        const std::uint32_t k = 2 + static_cast<std::uint32_t>(gen.next_below(12));
        const auto uniform = workload::make_uniform_random(n, k, gen);
        ASSERT_EQ(uniform.n(), n);
        ASSERT_TRUE(uniform.plurality_unique());
        const auto zipf = workload::make_zipf(n, k, 0.5 + gen.next_unit() * 1.5, gen);
        ASSERT_EQ(zipf.n(), n);
        ASSERT_TRUE(zipf.plurality_unique());
        const auto sum = std::accumulate(zipf.support().begin(), zipf.support().end(), 0u);
        ASSERT_EQ(sum, n);
    }
}

// -- end-to-end edge cases ---------------------------------------------------

TEST(Properties, OddAndPrimePopulationSizes) {
    for (std::uint32_t n : {511u, 769u, 1021u}) {
        const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, 3);
        const auto r = core::run_to_consensus(cfg, workload::make_bias_one(n, 3), 5 + n);
        EXPECT_TRUE(r.converged) << n;
        EXPECT_TRUE(r.correct) << n;
    }
}

TEST(Properties, BiasTwoOnEvenBinaryInstances) {
    // k = 2 with even n: the minimal feasible bias is 2; must still be won.
    const auto dist = workload::make_bias_one(1024, 2);
    ASSERT_EQ(dist.bias(), 2u);
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, 1024, 2);
    const auto r = core::run_to_consensus(cfg, dist, 77);
    EXPECT_TRUE(r.correct);
}

TEST(Properties, ImprovedModeBinaryCase) {
    const auto cfg = core::protocol_config::make(core::algorithm_mode::improved, 1024, 2);
    const auto r = core::run_to_consensus(cfg, workload::make_bias_one(1025, 2), 9);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
}

TEST(Properties, HugeBiasConvergesFasterThanBiasOne) {
    const std::uint32_t n = 1024;
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, 2);
    // Same machinery, but with bias n/2 the matches are decided instantly;
    // total time is dominated by the fixed phase schedule, so the gap is
    // modest — this checks the runs are at least not degenerate.
    const auto easy = core::run_to_consensus(cfg, workload::make_bias_one(n, 2, n / 2), 3);
    const auto hard = core::run_to_consensus(cfg, workload::make_bias_one(n, 2), 3);
    EXPECT_TRUE(easy.correct);
    EXPECT_TRUE(hard.correct);
    EXPECT_LE(easy.parallel_time, hard.parallel_time * 1.5);
}

TEST(Properties, SameSeedSameOutcomeAcrossAllModes) {
    const auto dist = workload::make_bias_one(512, 4);
    for (auto mode :
         {core::algorithm_mode::ordered, core::algorithm_mode::unordered,
          core::algorithm_mode::improved}) {
        const auto cfg = core::protocol_config::make(mode, 512, 4);
        const auto a = core::run_to_consensus(cfg, dist, 1234);
        const auto b = core::run_to_consensus(cfg, dist, 1234);
        EXPECT_EQ(a.interactions, b.interactions) << static_cast<int>(mode);
        EXPECT_EQ(a.winner_opinion, b.winner_opinion) << static_cast<int>(mode);
        EXPECT_EQ(a.converged, b.converged) << static_cast<int>(mode);
    }
}

// -- averaging majority: verdicts monotone in the input difference ----------

class AveragingMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(AveragingMonotonicity, VerdictMatchesSignOfDifference) {
    const int diff = GetParam();
    const std::uint32_t n = 512;
    const std::uint32_t base = n / 4;
    const std::uint32_t plus = base + (diff > 0 ? diff : 0);
    const std::uint32_t minus = base + (diff < 0 ? -diff : 0);
    const std::int64_t amp = majority::default_amplification(n);
    const auto seed = static_cast<std::uint64_t>(diff + 1000);
    auto agents =
        test::expanded(majority::averaging_census(plus, minus, n - plus - minus, amp), seed);
    sim::simulation<majority::averaging_majority_protocol> s{
        majority::averaging_majority_protocol{}, std::move(agents), seed};
    const auto done = [](const auto& sim) {
        return majority::population_verdict(sim.agents()) != majority::majority_verdict::undecided;
    };
    ASSERT_TRUE(sim::converge(s, done, 2000ull * n).converged);
    const auto verdict = majority::population_verdict(s.agents());
    if (diff > 0) {
        EXPECT_EQ(verdict, majority::majority_verdict::plus);
    } else if (diff < 0) {
        EXPECT_EQ(verdict, majority::majority_verdict::minus);
    } else {
        EXPECT_EQ(verdict, majority::majority_verdict::tie);
    }
}

INSTANTIATE_TEST_SUITE_P(Diffs, AveragingMonotonicity,
                         ::testing::Values(-17, -2, -1, 0, 1, 2, 17));

}  // namespace
