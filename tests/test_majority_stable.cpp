// Unit tests for the 4-state always-correct exact majority (majority/).
#include <gtest/gtest.h>

#include "majority/stable_four_state.h"
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

TEST(StableFourState, CancellationRule) {
    stable_four_state_protocol proto;
    plurality::sim::rng gen(1);
    four_state_agent p{four_state::strong_plus};
    four_state_agent m{four_state::strong_minus};
    proto.interact(p, m, gen);
    EXPECT_EQ(p.state, four_state::weak_plus);
    EXPECT_EQ(m.state, four_state::weak_minus);
}

TEST(StableFourState, StrongConvertsOpposingWeak) {
    stable_four_state_protocol proto;
    plurality::sim::rng gen(2);
    four_state_agent p{four_state::strong_plus};
    four_state_agent w{four_state::weak_minus};
    proto.interact(p, w, gen);
    EXPECT_EQ(w.state, four_state::weak_plus);
    EXPECT_EQ(p.state, four_state::strong_plus);
    // Symmetric direction (weak initiator, strong responder).
    four_state_agent w2{four_state::weak_plus};
    four_state_agent m{four_state::strong_minus};
    proto.interact(w2, m, gen);
    EXPECT_EQ(w2.state, four_state::weak_minus);
}

TEST(StableFourState, WeakWeakIsNoOp) {
    stable_four_state_protocol proto;
    plurality::sim::rng gen(3);
    four_state_agent a{four_state::weak_plus};
    four_state_agent b{four_state::weak_minus};
    proto.interact(a, b, gen);
    EXPECT_EQ(a.state, four_state::weak_plus);
    EXPECT_EQ(b.state, four_state::weak_minus);
}

TEST(StableFourState, TokenDifferenceIsInvariant) {
    auto agents = expanded(four_state_census(60, 40, 0), 4);
    simulation<stable_four_state_protocol> s{stable_four_state_protocol{}, std::move(agents), 4};
    EXPECT_EQ(strong_token_difference(s), 20);
    s.run_for(50000);
    EXPECT_EQ(strong_token_difference(s), 20);
}

TEST(StableFourState, AlwaysCorrectAtBiasOne) {
    // The defining property: exact majority at bias 1, every single trial.
    const std::uint32_t n = 256;  // deliberately small: expected time is Θ(n·polylog)
    const auto body = [n](std::size_t, std::uint64_t seed) {
        auto agents = expanded(four_state_census(n / 2 + 1, n / 2 - 1, 0), seed);
        simulation<stable_four_state_protocol> s{stable_four_state_protocol{}, std::move(agents),
                                                 seed};
        const auto done = [](const auto& sim) { return consensus_reached(sim); };
        const auto finished = converge(s, done, 40000ull * n);
        return outcome(finished.converged && consensus_sign(s) == 1, s.parallel_time());
    };
    const auto summary =
        plurality::scenario::run_trials(30, 11, trial_executor{1}, body).summary;
    EXPECT_EQ(summary.correct, summary.trials);
}

TEST(StableFourState, MinoritySignNeverWins) {
    const std::uint32_t n = 200;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        auto agents = expanded(four_state_census(n / 2 + 5, n / 2 - 5, 0), seed);
        simulation<stable_four_state_protocol> s{stable_four_state_protocol{}, std::move(agents),
                                                 seed};
        (void)converge(s, [](const auto& sim) { return consensus_reached(sim); },
                       40000ull * n);
        EXPECT_NE(consensus_sign(s), -1);
    }
}

TEST(StableFourState, OutputSignHelper) {
    EXPECT_EQ(output_sign({four_state::strong_plus}), 1);
    EXPECT_EQ(output_sign({four_state::weak_plus}), 1);
    EXPECT_EQ(output_sign({four_state::strong_minus}), -1);
    EXPECT_EQ(output_sign({four_state::weak_minus}), -1);
}

}  // namespace
