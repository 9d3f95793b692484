// Dedicated suite for src/census/state_census.h: the counting census's
// increment/decrement invariants and total conservation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "census/state_census.h"

namespace {

using namespace plurality;

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

}  // namespace
