// The census encoding of a tournament agent.  A census state is the agent's
// bytes, and core::plurality_protocol::live_slice keeps them to the state
// the paper counts (§3.4, Figure 1): the shared variables plus what δ can
// still read of the agent's role in its stage and mode, every other field
// at its default.  tests/test_activity_classes.cpp checks that δ only ever
// produces states that are their own live slice; the structural view of
// experiment E2 (bench/e2_state_counts.h) buckets the players' loads.
#include <gtest/gtest.h>

#include <cstdint>

#include "../bench/e2_state_counts.h"
#include "core/agent.h"
#include "core/config.h"
#include "core/plurality_protocol.h"
#include "sim/census_store.h"

namespace {

using namespace plurality::core;
using plurality::sim::same_state;

plurality_protocol protocol_of(algorithm_mode mode) {
    return plurality_protocol{protocol_config::make(mode, 1024, 4)};
}

TEST(CensusEncoding, DistinguishesRoles) {
    const auto protocol = protocol_of(algorithm_mode::ordered);
    core_agent collector;
    collector.role = agent_role::collector;
    core_agent clock = collector;
    clock.role = agent_role::clock;
    EXPECT_FALSE(same_state(protocol.live_slice(collector), protocol.live_slice(clock)));
}

TEST(CensusEncoding, IgnoresOtherRolesVariables) {
    // A clock keeps its counter, not the collector variables it once held.
    const auto protocol = protocol_of(algorithm_mode::ordered);
    core_agent clock;
    clock.role = agent_role::clock;
    clock.count = 17;
    core_agent stale = clock;
    stale.opinion = 3;
    stale.tokens = 9;
    stale.defender = true;
    stale.maj_load = -5;
    EXPECT_TRUE(same_state(protocol.live_slice(stale), clock));
}

TEST(CensusEncoding, CollectorVariablesMatter) {
    const auto protocol = protocol_of(algorithm_mode::unordered);
    core_agent collector;
    collector.role = agent_role::collector;
    collector.stage = lifecycle_stage::tournaments;
    collector.opinion = 2;
    collector.tokens = 3;
    collector.defender = true;
    collector.load = -2;
    collector.participated = true;
    EXPECT_TRUE(same_state(protocol.live_slice(collector), collector));
    // Only the unordered modes' challenger selection reads `participated`.
    core_agent ordered = collector;
    ordered.participated = false;
    EXPECT_TRUE(same_state(protocol_of(algorithm_mode::ordered).live_slice(collector), ordered));
}

TEST(CensusEncoding, PhaseAndOnceFlagsAreShared) {
    for (const auto role :
         {agent_role::collector, agent_role::clock, agent_role::tracker, agent_role::player}) {
        core_agent a;
        a.role = role;
        a.stage = lifecycle_stage::tournaments;
        a.phase = 4;
        a.once_flags = once_saw_defender_win;
        a.ever_initiated = true;
        const core_agent slice = protocol_of(algorithm_mode::ordered).live_slice(a);
        EXPECT_EQ(slice.phase, 4);
        EXPECT_EQ(slice.once_flags, once_saw_defender_win);
        EXPECT_TRUE(slice.ever_initiated);
    }
}

TEST(CensusEncoding, StructuralModeBucketsPlayerLoads) {
    // E2's structural count keeps one bucket per sign and power-of-two band.
    using plurality::bench::load_bucket;
    EXPECT_EQ(load_bucket(1000), load_bucket(1001));
    EXPECT_NE(load_bucket(1000), load_bucket(-1000));
    EXPECT_NE(load_bucket(1000), load_bucket(1025));
    EXPECT_NE(load_bucket(0), load_bucket(1));
    EXPECT_NE(load_bucket(1), load_bucket(-1));
}

TEST(CensusEncoding, ImprovedModeIncludesJuntaState) {
    core_agent a;
    a.role = agent_role::collector;
    a.opinion = 2;
    a.tokens = 1;
    a.junta_level = 1;
    a.junta_active = false;
    a.junta_member = true;
    a.junta_p = 5;
    a.prune_phase = -2;
    EXPECT_TRUE(same_state(protocol_of(algorithm_mode::improved).live_slice(a), a));

    core_agent without = a;  // the junta fields at their defaults
    without.junta_level = 0;
    without.junta_active = true;
    without.junta_member = false;
    without.junta_p = 0;
    without.prune_phase = 0;
    EXPECT_TRUE(same_state(protocol_of(algorithm_mode::unordered).live_slice(a), without));

    a.stage = lifecycle_stage::electing;
    without.stage = lifecycle_stage::electing;
    EXPECT_TRUE(same_state(protocol_of(algorithm_mode::improved).live_slice(a), without));
}

TEST(CensusEncoding, ElectionVariablesEndWithTheElection) {
    const auto protocol = protocol_of(algorithm_mode::unordered);
    core_agent tracker;
    tracker.role = agent_role::tracker;
    tracker.stage = lifecycle_stage::electing;
    tracker.candidate = true;
    tracker.coin = true;
    tracker.saw_one = true;
    tracker.le_rounds = 7;
    EXPECT_TRUE(same_state(protocol.live_slice(tracker), tracker));

    core_agent leader = tracker;
    leader.stage = lifecycle_stage::tournaments;
    leader.is_leader = true;
    leader.ann_opinion = 3;
    core_agent expected;
    expected.role = agent_role::tracker;
    expected.stage = lifecycle_stage::tournaments;
    expected.is_leader = true;
    expected.ann_opinion = 3;
    EXPECT_TRUE(same_state(protocol.live_slice(leader), expected));
}

TEST(CensusEncoding, WinnerKeepsWhatTheReadoutsRead) {
    // A winner converts the agents it meets and does nothing else; the
    // readouts (core/result.h) read its opinion, tokens and leader bit.
    const auto protocol = protocol_of(algorithm_mode::unordered);
    core_agent winner;
    winner.role = agent_role::collector;
    winner.stage = lifecycle_stage::tournaments;
    winner.winner = true;
    winner.opinion = 1;
    winner.tokens = 4;
    winner.is_leader = true;
    core_agent stale = winner;
    stale.defender = true;
    stale.load = 3;
    stale.participated = true;
    stale.leader_cycle = 2;
    EXPECT_TRUE(same_state(protocol.live_slice(stale), winner));
}

}  // namespace
