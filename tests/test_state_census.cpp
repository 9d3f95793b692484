// Dedicated suite for src/census/state_census.h: the distinct-states view,
// the counting census (increment/decrement invariants, total conservation),
// and the packer/unpacker round-trip — including a round-trip through the
// real census_encoding canonical codes.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "census/state_census.h"
#include "core/census_encoding.h"
#include "core/config.h"

namespace {

using namespace plurality;

TEST(StateCensus, ObservationIsIdempotent) {
    census::state_census census;
    EXPECT_EQ(census.distinct(), 0u);
    census.observe(7);
    census.observe(7);
    census.observe(7);
    EXPECT_EQ(census.distinct(), 1u);
    census.observe(8);
    EXPECT_EQ(census.distinct(), 2u);
    census.clear();
    EXPECT_EQ(census.distinct(), 0u);
}

TEST(CountedCensus, IncrementDecrementKeepTotalExact) {
    census::counted_census census;
    EXPECT_EQ(census.total(), 0u);

    census.increment(1, 10);
    census.increment(2, 5);
    census.increment(3);
    EXPECT_EQ(census.total(), 16u);
    EXPECT_EQ(census.distinct(), 3u);
    EXPECT_EQ(census.count_of(1), 10u);
    EXPECT_EQ(census.count_of(2), 5u);
    EXPECT_EQ(census.count_of(3), 1u);
    EXPECT_EQ(census.count_of(99), 0u);

    // Moving mass between states (the census backend's per-interaction
    // pattern: withdraw two, deposit two) conserves the total.
    census.decrement(1);
    census.increment(4);
    census.decrement(2);
    census.increment(4);
    EXPECT_EQ(census.total(), 16u);
    EXPECT_EQ(census.count_of(4), 2u);
}

TEST(CountedCensus, ZeroCountStatesAreDropped) {
    census::counted_census census;
    census.increment(5, 2);
    census.decrement(5, 2);
    EXPECT_EQ(census.distinct(), 0u);
    EXPECT_EQ(census.count_of(5), 0u);
    EXPECT_EQ(census.total(), 0u);
}

TEST(CountedCensus, DecrementBelowZeroThrows) {
    census::counted_census census;
    EXPECT_THROW(census.decrement(1), std::underflow_error);
    census.increment(1, 3);
    EXPECT_THROW(census.decrement(1, 4), std::underflow_error);
    // The failed decrement must not have corrupted anything.
    EXPECT_EQ(census.count_of(1), 3u);
    EXPECT_EQ(census.total(), 3u);
}

TEST(StatePacker, UnpackerRoundTripsFieldsInReverseOrder) {
    census::state_packer packer;
    packer.field(3, 5).flag(true).field(12, 20).flag(false).field(0, 7);

    census::state_unpacker unpacker(packer.code());
    EXPECT_EQ(unpacker.field(7), 0u);
    EXPECT_FALSE(unpacker.flag());
    EXPECT_EQ(unpacker.field(20), 12u);
    EXPECT_TRUE(unpacker.flag());
    EXPECT_EQ(unpacker.field(5), 3u);
    EXPECT_EQ(unpacker.remainder(), 0u);
}

TEST(StatePacker, RoundTripsCensusEncodingSharedFields) {
    // canonical_code packs the shared variables first (role, stage, phase,
    // once_flags, winner, ever_initiated); unpacking the role-specific tail
    // in reverse must recover them exactly.  This pins the packing order the
    // census encoding relies on.
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, 1024, 4);
    core::core_agent agent;
    agent.role = core::agent_role::tracker;
    agent.stage = core::lifecycle_stage::tournaments;
    agent.phase = 3;
    agent.once_flags = 2;
    agent.winner = true;
    agent.ever_initiated = true;
    agent.tcnt = 2;

    const std::uint64_t code = core::canonical_code(agent, cfg, core::census_mode::structural);
    census::state_unpacker unpacker(code);
    // Reverse order of canonical_code's packing for an ordered-mode tracker:
    EXPECT_EQ(unpacker.field(cfg.k + 2), agent.tcnt);
    EXPECT_TRUE(unpacker.flag());   // ever_initiated
    EXPECT_TRUE(unpacker.flag());   // winner
    EXPECT_EQ(unpacker.field(4), agent.once_flags);
    EXPECT_EQ(unpacker.field(cfg.phase_modulus()), agent.phase);
    EXPECT_EQ(unpacker.field(3), static_cast<std::uint64_t>(agent.stage));
    EXPECT_EQ(unpacker.field(4), static_cast<std::uint64_t>(agent.role));
    EXPECT_EQ(unpacker.remainder(), 0u);
}

}  // namespace
