// Unit tests for the 3-state approximate majority of [4] (majority/).
#include <gtest/gtest.h>

#include <cmath>

#include "majority/three_state.h"
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

TEST(ThreeState, TransitionRules) {
    three_state_protocol proto;
    plurality::sim::rng gen(1);

    three_state_agent a{binary_opinion::alpha};
    three_state_agent u{binary_opinion::undecided};
    proto.interact(a, u, gen);
    EXPECT_EQ(u.opinion, binary_opinion::alpha);

    three_state_agent b{binary_opinion::beta};
    proto.interact(a, b, gen);
    EXPECT_EQ(b.opinion, binary_opinion::undecided);
    EXPECT_EQ(a.opinion, binary_opinion::alpha);

    // Undecided initiators change nothing.
    three_state_agent u2{binary_opinion::undecided};
    three_state_agent b2{binary_opinion::beta};
    proto.interact(u2, b2, gen);
    EXPECT_EQ(b2.opinion, binary_opinion::beta);
}

TEST(ThreeState, ConsensusHelpers) {
    auto agents = expanded(three_state_census(3, 0, 0), 1);
    EXPECT_TRUE(consensus_reached(agents));
    EXPECT_EQ(consensus_value(agents), binary_opinion::alpha);
    agents.push_back({binary_opinion::undecided});
    EXPECT_FALSE(consensus_reached(agents));
}

TEST(ThreeState, LargeBiasConvergesCorrectlyAndFast) {
    const std::uint32_t n = 4096;
    const auto summary = trial_executor{1}.run(20, 55, [n](std::uint64_t seed) {
        auto agents = expanded(three_state_census(3 * n / 4, n / 4, 0), seed);
        simulation<three_state_protocol> s{three_state_protocol{}, std::move(agents), seed};
        const auto done = [](const auto& sim) { return consensus_reached(sim.agents()); };
        const auto finished = converge(s, done, 400ull * n);
        plurality::sim::trial_outcome out;
        out.success =
            finished.converged && consensus_value(s.agents()) == binary_opinion::alpha;
        out.parallel_time = s.parallel_time();
        return out;
    });
    EXPECT_EQ(summary.successes, summary.trials);
    EXPECT_LT(summary.time_stats.mean, 10.0 * std::log2(n));
}

TEST(ThreeState, BiasOneIsACoinFlip) {
    // The headline limitation the paper's protocols overcome: at bias 1 the
    // 3-state dynamics picks the *wrong* opinion about half the time.
    const std::uint32_t n = 1024;
    const auto summary = trial_executor{1}.run(60, 77, [n](std::uint64_t seed) {
        auto agents = expanded(three_state_census(n / 2 + 1, n / 2 - 1, 0), seed);
        simulation<three_state_protocol> s{three_state_protocol{}, std::move(agents), seed};
        const auto done = [](const auto& sim) { return consensus_reached(sim.agents()); };
        (void)converge(s, done, 2000ull * n);
        plurality::sim::trial_outcome out;
        out.success = consensus_value(s.agents()) == binary_opinion::alpha;
        return out;
    });
    // Correctness rate statistically indistinguishable from 50%: between 25%
    // and 75% with 60 trials is a safe corridor.
    EXPECT_GT(summary.successes, summary.trials / 4);
    EXPECT_LT(summary.successes, 3 * summary.trials / 4);
}

TEST(ThreeState, ConsensusIsStableOnceReached) {
    const std::uint32_t n = 512;
    auto agents = expanded(three_state_census(n, 0, 0), 5);
    simulation<three_state_protocol> s{three_state_protocol{}, std::move(agents), 5};
    s.run_for(100ull * n);
    EXPECT_EQ(consensus_value(s.agents()), binary_opinion::alpha);
}

}  // namespace
