// Unit tests for the 3-state approximate majority of [4], which is
// undecided-state dynamics at k = 2 (baselines/usd_plurality.h): opinion 1
// is α, 2 is β and 0 undecided.  USD's own transition-rule and readout
// tests (tests/test_baselines.cpp) cover δ and the consensus helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/usd_plurality.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "test_support.h"

namespace {

using namespace plurality::baselines;
using plurality::sim::simulation;
using plurality::sim::converge;
using plurality::sim::trial_executor;
using plurality::test::alpha_v;
using plurality::test::expanded;
using plurality::test::outcome;

TEST(ThreeState, LargeBiasConvergesCorrectlyAndFast) {
    const std::uint32_t n = 4096;
    const auto body = [n](std::size_t, std::uint64_t seed) {
        auto agents = expanded(binary_census(3 * n / 4, n / 4, 0), seed);
        simulation<usd_plurality_protocol> s{usd_plurality_protocol{}, std::move(agents), seed};
        const auto done = [](const auto& sim) { return consensus_reached(sim); };
        const auto finished = converge(s, done, 400ull * n);
        return outcome(finished.converged && consensus_opinion(s) == alpha_v, s.parallel_time());
    };
    const auto summary =
        plurality::scenario::run_trials(20, 55, trial_executor{1}, body).summary;
    EXPECT_EQ(summary.correct, summary.trials);
    EXPECT_LT(summary.time_stats.mean, 10.0 * std::log2(n));
}

TEST(ThreeState, BiasOneIsACoinFlip) {
    // The headline limitation the paper's protocols overcome: at bias 1 the
    // 3-state dynamics picks the *wrong* opinion about half the time.
    const std::uint32_t n = 1024;
    const auto body = [n](std::size_t, std::uint64_t seed) {
        auto agents = expanded(binary_census(n / 2 + 1, n / 2 - 1, 0), seed);
        simulation<usd_plurality_protocol> s{usd_plurality_protocol{}, std::move(agents), seed};
        const auto done = [](const auto& sim) { return consensus_reached(sim); };
        (void)converge(s, done, 2000ull * n);
        return outcome(consensus_opinion(s) == alpha_v);
    };
    const auto summary =
        plurality::scenario::run_trials(60, 77, trial_executor{1}, body).summary;
    // Correctness rate statistically indistinguishable from 50%: between 25%
    // and 75% with 60 trials is a safe corridor.
    EXPECT_GT(summary.correct, summary.trials / 4);
    EXPECT_LT(summary.correct, 3 * summary.trials / 4);
}

TEST(ThreeState, ConsensusIsStableOnceReached) {
    const std::uint32_t n = 512;
    auto agents = expanded(binary_census(n, 0, 0), 5);
    simulation<usd_plurality_protocol> s{usd_plurality_protocol{}, std::move(agents), 5};
    s.run_for(100ull * n);
    EXPECT_EQ(consensus_opinion(s), alpha_v);
}

}  // namespace
