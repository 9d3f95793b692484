// The random pairwise scheduler of the population-protocol model (paper §2):
// in every time step one ordered pair of distinct agents (initiator,
// responder) is chosen independently and uniformly at random.
//
// Two sampling paths share one distribution:
//  * `sample_pair` — one pair per call, for code that steps manually;
//  * `block_scheduler` — draws pairs in fixed-size blocks so the hot loop
//    amortizes RNG rejection bookkeeping and can prefetch the agents of the
//    next pair while the current interaction executes.
//
// Both derive the ordered pair from a *single* uniform draw over the
// n·(n−1) feasible ordered pairs (rather than two draws for initiator and
// responder separately): r ∈ [0, n(n−1)) splits as r = initiator·(n−1) + s
// with the responder being the s-th agent other than the initiator.  The
// product n·(n−1) is formed in 64-bit arithmetic, so every n ≤ 2^32 − 1 is
// safe from overflow.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/rng.h"

namespace plurality::sim {

/// An ordered interaction pair: `initiator` observes/drives the transition,
/// `responder` is its partner.  Both are indices into the agent vector.
struct interaction_pair {
    std::uint32_t initiator;
    std::uint32_t responder;
};

/// Decodes a rank r ∈ [0, n(n−1)) into the r-th ordered pair of distinct
/// agents (lexicographic by initiator, then by responder skipping the
/// initiator).
[[nodiscard]] constexpr interaction_pair decode_pair(std::uint64_t rank,
                                                     std::uint32_t n) noexcept {
    const auto initiator = static_cast<std::uint32_t>(rank / (n - 1));
    auto responder = static_cast<std::uint32_t>(rank % (n - 1));
    responder += responder >= initiator ? 1u : 0u;
    return {initiator, responder};
}

/// Samples a uniformly random ordered pair of *distinct* agents out of `n`
/// with a single bounded draw.  Requires n >= 2.
///
/// This is `decode_pair(gen.next_below(n·(n−1)), n)` — bit-for-bit, rejection
/// behaviour included — but computed in the chained-multiply form, which
/// replaces the 64-bit divide/modulo of the decode with two widening
/// multiplies.  Writing w·n = initiator·2^64 + frac, one has
/// w·n·(n−1) = (initiator·(n−1) + hi(frac·(n−1)))·2^64 + lo(frac·(n−1)),
/// so hi(w·n) is exactly rank / (n−1), hi(frac·(n−1)) is exactly
/// rank mod (n−1), and lo(frac·(n−1)) is exactly the low word Lemire's
/// rejection tests against.
[[nodiscard]] inline interaction_pair sample_pair(rng& gen, std::uint32_t n) noexcept {
    const std::uint64_t feasible = static_cast<std::uint64_t>(n) * (n - 1);
    for (;;) {
        const std::uint64_t word = gen.next();
        const __uint128_t scaled = static_cast<__uint128_t>(word) * n;
        const auto initiator = static_cast<std::uint64_t>(scaled >> 64);
        const auto frac = static_cast<std::uint64_t>(scaled);
        const __uint128_t split = static_cast<__uint128_t>(frac) * (n - 1);
        const auto slot = static_cast<std::uint64_t>(split >> 64);
        const auto low = static_cast<std::uint64_t>(split);
        if (low < feasible) [[unlikely]] {
            const std::uint64_t threshold = -feasible % feasible;
            if (low < threshold) continue;  // matches next_below's rejection
        }
        auto responder = static_cast<std::uint32_t>(slot);
        responder += responder >= initiator ? 1u : 0u;
        return {static_cast<std::uint32_t>(initiator), responder};
    }
}

/// Prefetches an agent's cache line for an upcoming read-write interaction.
template <class Agent>
inline void prefetch_agent(const Agent* agent) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(static_cast<const void*>(agent), 1 /*rw*/, 3 /*high locality*/);
#else
    (void)agent;
#endif
}

/// Draws interaction pairs in blocks.
///
/// A block of `block_size` ranks is materialized per refill; consumers pull
/// pairs one at a time through `next` and may `peek` one pair ahead to
/// prefetch its agents.  Reproducibility caveat: when the consumer draws
/// from the same rng between pulls (protocols do, during interactions), the
/// trajectory depends on *where the refill boundaries fall* — i.e. on the
/// fixed block_size and on refills happening exactly when the buffer drains.
/// Changing either silently re-rolls every seed-replayed experiment, which
/// is why block_size is a compile-time constant and the golden-stream test
/// pins the combined stream.
class block_scheduler {
public:
    static constexpr std::size_t block_size = 256;

    /// Requires n >= 2.
    explicit block_scheduler(std::uint32_t n) noexcept : n_(n) {}

    /// Next scheduled pair, refilling the block from `gen` when drained.
    [[nodiscard]] interaction_pair next(rng& gen) noexcept {
        if (pos_ == filled_) refill(gen);
        return buffer_[pos_++];
    }

    /// The pair `next` will return, if it is already drawn (nullptr at block
    /// boundaries).  Never advances the stream.
    [[nodiscard]] const interaction_pair* peek() const noexcept {
        return pos_ < filled_ ? &buffer_[pos_] : nullptr;
    }

private:
    void refill(rng& gen) noexcept;  // out-of-line: scheduler.cpp

    std::uint32_t n_;
    std::uint32_t pos_ = 0;
    std::uint32_t filled_ = 0;
    std::array<interaction_pair, block_size> buffer_{};
};

}  // namespace plurality::sim
