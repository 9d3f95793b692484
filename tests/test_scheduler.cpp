// Unit tests for the uniform random pairwise scheduler (sim/scheduler.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace {

using plurality::sim::interaction_pair;
using plurality::sim::rng;
using plurality::sim::sample_pair;

TEST(Scheduler, PairsAreDistinct) {
    rng gen(3);
    for (int i = 0; i < 100000; ++i) {
        const interaction_pair p = sample_pair(gen, 7);
        EXPECT_NE(p.initiator, p.responder);
        EXPECT_LT(p.initiator, 7u);
        EXPECT_LT(p.responder, 7u);
    }
}

TEST(Scheduler, TwoAgentsAlwaysMeet) {
    rng gen(4);
    for (int i = 0; i < 1000; ++i) {
        const interaction_pair p = sample_pair(gen, 2);
        EXPECT_NE(p.initiator, p.responder);
    }
}

TEST(Scheduler, InitiatorUniform) {
    rng gen(8);
    constexpr std::uint32_t n = 16;
    constexpr int draws = 320000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < draws; ++i) ++counts[sample_pair(gen, n).initiator];
    // Chi-square with 15 dof: 99.9th percentile is ~37.7.
    EXPECT_LT(plurality::analysis::chi_square_uniform(counts), 40.0);
}

TEST(Scheduler, ResponderUniform) {
    rng gen(9);
    constexpr std::uint32_t n = 16;
    constexpr int draws = 320000;
    std::vector<std::uint64_t> counts(n, 0);
    for (int i = 0; i < draws; ++i) ++counts[sample_pair(gen, n).responder];
    EXPECT_LT(plurality::analysis::chi_square_uniform(counts), 40.0);
}

TEST(Scheduler, OrderedPairsUniform) {
    rng gen(10);
    constexpr std::uint32_t n = 8;
    constexpr int draws = 560000;
    std::vector<std::uint64_t> counts(n * n, 0);
    for (int i = 0; i < draws; ++i) {
        const interaction_pair p = sample_pair(gen, n);
        ++counts[p.initiator * n + p.responder];
    }
    // Keep only the n(n-1) feasible ordered pairs.
    std::vector<std::uint64_t> feasible;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            if (i == j) {
                EXPECT_EQ(counts[i * n + j], 0u);
            } else {
                feasible.push_back(counts[i * n + j]);
            }
        }
    }
    // 55 dof: 99.9th percentile is ~90.
    EXPECT_LT(plurality::analysis::chi_square_uniform(feasible), 95.0);
}

TEST(Scheduler, DecodePairIsABijection) {
    // Every rank in [0, n(n-1)) maps to a distinct feasible ordered pair, so
    // one uniform draw over ranks is one uniform draw over pairs.
    constexpr std::uint32_t n = 5;
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::uint64_t rank = 0; rank < n * (n - 1); ++rank) {
        const interaction_pair p = plurality::sim::decode_pair(rank, n);
        EXPECT_NE(p.initiator, p.responder);
        EXPECT_LT(p.initiator, n);
        EXPECT_LT(p.responder, n);
        seen.emplace(p.initiator, p.responder);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n * (n - 1)));
}

TEST(Scheduler, SingleDrawGoldenStream) {
    // Golden values for the single-draw sampling scheme: the pair stream is
    // part of the reproducibility contract (every recorded experiment is
    // replayed from a seed), so an accidental change to the draw pattern
    // must fail loudly.  Regenerate by printing the first pairs for seed 42.
    rng gen(42);
    constexpr std::uint32_t n = 1000;
    const std::vector<interaction_pair> expected = {
        {83u, 863u},  {378u, 980u}, {680u, 43u},  {924u, 692u},
        {991u, 803u}, {769u, 738u}, {719u, 258u}, {850u, 8u},
        {761u, 374u}, {583u, 348u}, {682u, 452u}, {290u, 678u},
    };
    for (const auto& want : expected) {
        const interaction_pair got = sample_pair(gen, n);
        EXPECT_EQ(got.initiator, want.initiator);
        EXPECT_EQ(got.responder, want.responder);
    }
}

TEST(Scheduler, ChainedMultiplyMatchesSingleDrawDecode) {
    // sample_pair's chained-multiply form hand-duplicates next_below's
    // Lemire rejection; this pins the documented contract that it equals
    // decode_pair(next_below(n·(n−1))) draw-for-draw, so the two copies
    // cannot silently diverge.  (At 64-bit width the rejection essentially
    // never fires — its equivalence is argued in scheduler.h — but stream
    // synchronization below would still catch a divergence in word
    // consumption.)
    for (const std::uint32_t n : {2u, 3u, 7u, 97u, 1000u, 0xffffffffu}) {
        rng chained(n);
        rng reference(n);
        const std::uint64_t feasible = static_cast<std::uint64_t>(n) * (n - 1);
        for (int i = 0; i < 5000; ++i) {
            const interaction_pair got = sample_pair(chained, n);
            const interaction_pair want =
                plurality::sim::decode_pair(reference.next_below(feasible), n);
            ASSERT_EQ(got.initiator, want.initiator) << "n=" << n << " draw " << i;
            ASSERT_EQ(got.responder, want.responder) << "n=" << n << " draw " << i;
        }
        // Both generators must have consumed the same number of words.
        EXPECT_EQ(chained.next(), reference.next()) << "n=" << n;
    }
}

TEST(Scheduler, GridCellMatchesSingleDrawDecodeOnAnyShape) {
    // The census store splits one bounded uniform over N_c·R_c with
    // sample_grid_cell, on grids sample_pair never forms (rows far from
    // columns + 1).  Draw for draw it must equal the row-major decode of
    // next_below(rows·columns), words consumed included.
    const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
        {1, 1}, {1, 9}, {9, 1}, {3, 250}, {250, 3}, {12345, 678}, {0xffffffffull, 0xfffffffeull}};
    for (const auto& [rows, columns] : shapes) {
        rng chained(rows ^ (columns << 7));
        rng reference(rows ^ (columns << 7));
        for (int i = 0; i < 5000; ++i) {
            const plurality::sim::grid_cell got =
                plurality::sim::sample_grid_cell(chained, rows, columns);
            const std::uint64_t rank = reference.next_below(rows * columns);
            ASSERT_EQ(got.row, rank / columns) << rows << "x" << columns << " draw " << i;
            ASSERT_EQ(got.column, rank % columns) << rows << "x" << columns << " draw " << i;
        }
        EXPECT_EQ(chained.next(), reference.next()) << rows << "x" << columns;
    }
}

TEST(Scheduler, NoOverflowNearUint32Max) {
    // n(n-1) for the largest supported population exceeds 2^63; the 64-bit
    // product must not wrap and pairs must stay in range and distinct.
    rng gen(11);
    constexpr std::uint32_t n = 0xffffffffu;
    for (int i = 0; i < 1000; ++i) {
        const interaction_pair p = sample_pair(gen, n);
        EXPECT_NE(p.initiator, p.responder);
        EXPECT_LT(p.initiator, n);
        EXPECT_LT(p.responder, n);
    }
}

TEST(BlockScheduler, MatchesSamplePairStream) {
    // The block scheduler batches the draws but must produce exactly the
    // stream `sample_pair` would from the same rng state.
    constexpr std::uint32_t n = 97;
    rng direct(123);
    rng batched(123);
    plurality::sim::block_scheduler scheduler(n);
    for (int i = 0; i < 1000; ++i) {
        const interaction_pair want = sample_pair(direct, n);
        const interaction_pair got = scheduler.next(batched);
        ASSERT_EQ(got.initiator, want.initiator) << "draw " << i;
        ASSERT_EQ(got.responder, want.responder) << "draw " << i;
    }
}

TEST(BlockScheduler, PeekNeverAdvancesTheStream) {
    constexpr std::uint32_t n = 31;
    rng gen(7);
    plurality::sim::block_scheduler scheduler(n);
    (void)scheduler.next(gen);  // force the first refill so peek has data
    for (int i = 0; i < 500; ++i) {
        const auto* ahead = scheduler.peek();
        const interaction_pair got = scheduler.next(gen);
        if (ahead != nullptr) {
            EXPECT_EQ(ahead->initiator, got.initiator);
            EXPECT_EQ(ahead->responder, got.responder);
        }
    }
}

TEST(BlockScheduler, UniformOverOrderedPairs) {
    rng gen(10);
    constexpr std::uint32_t n = 8;
    constexpr int draws = 560000;
    plurality::sim::block_scheduler scheduler(n);
    std::vector<std::uint64_t> counts(n * n, 0);
    for (int i = 0; i < draws; ++i) {
        const interaction_pair p = scheduler.next(gen);
        ++counts[p.initiator * n + p.responder];
    }
    std::vector<std::uint64_t> feasible;
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = 0; j < n; ++j) {
            if (i == j) {
                EXPECT_EQ(counts[i * n + j], 0u);
            } else {
                feasible.push_back(counts[i * n + j]);
            }
        }
    }
    // 55 dof: 99.9th percentile is ~90.
    EXPECT_LT(plurality::analysis::chi_square_uniform(feasible), 95.0);
}

}  // namespace
