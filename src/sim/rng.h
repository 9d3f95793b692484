// Deterministic pseudo-random number generation for population-protocol
// simulations.
//
// Every run of every experiment in this repository is reproducible from a
// single 64-bit seed.  We therefore avoid std::mt19937 / std::*_distribution
// (whose outputs are not pinned across standard-library implementations) and
// implement a fixed, portable generator stack:
//
//  * splitmix64  — seed expansion and cheap stateless mixing,
//  * xoshiro256** (Blackman & Vigna, 2018) — the main stream,
//  * Lemire's multiply-shift with rejection — unbiased bounded integers.
#pragma once

#include <array>
#include <cstdint>

namespace plurality::sim {

/// Advances a splitmix64 state and returns the next output word.
/// Used for seed expansion; also handy as a cheap 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// All randomness in a simulation flows through one `rng` instance so that a
/// run is a pure function of `(seed, initial configuration)`.
class rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the four 256-bit state words via splitmix64, as recommended by
    /// the xoshiro authors.  Any seed (including 0) is valid.
    explicit rng(std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64_next(sm);
    }

    /// Next raw 64-bit output.
    [[nodiscard]] std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        ++words_;
        return result;
    }

    /// Raw 64-bit words drawn so far — the cheapest deterministic probe of a
    /// run's randomness consumption (rejection retries included), exported
    /// as the `rng_words_total` metric.  The increment is one add next to
    /// xoshiro's nine ALU ops; it is always on because the count must not
    /// depend on the observability policy.
    [[nodiscard]] std::uint64_t words() const noexcept { return words_; }

    /// Uniform integer in [0, bound).  Unbiased (Lemire's method with
    /// rejection).  `bound` must be nonzero.
    [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        auto low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (low < threshold) {
                m = static_cast<__uint128_t>(next()) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform double in [0, 1) with 53 random bits.
    [[nodiscard]] double next_unit() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Fair coin.
    [[nodiscard]] bool next_bool() noexcept { return (next() >> 63) != 0; }

    /// Bernoulli trial with success probability `p`.
    [[nodiscard]] bool next_bernoulli(double p) noexcept { return next_unit() < p; }

    // UniformRandomBitGenerator interface (for std::shuffle etc.).
    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~0ull; }
    result_type operator()() noexcept { return next(); }

private:
    [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
    std::uint64_t words_ = 0;
};

/// Derives an independent child seed from a base seed and a stream index.
/// Used by the multi-trial driver to give each trial its own stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t stream) noexcept;

/// The two streams every trial derives from its seed: one for setup
/// randomness (workload sampling, the agent backend's shuffle), one for the
/// interaction schedule.  The scenario driver and `core::run_to_consensus`
/// both use them, so a trial seed names one trajectory everywhere.
inline constexpr std::uint64_t setup_stream = 0x5ce7a0ull;
inline constexpr std::uint64_t run_stream = 0x5ce7a1ull;

}  // namespace plurality::sim
