// Portable non-uniform random variates on top of the pinned `rng` stack.
//
// The determinism policy (docs/ARCHITECTURE.md) bans std::*_distribution —
// their algorithms, and hence their output streams, differ across standard
// libraries — so every non-uniform draw the simulators need is implemented
// here, once, against `rng`: binomial, hypergeometric,
// multivariate-hypergeometric and multinomial variates plus the
// birthday-problem collision-free run length the census simulator's table
// path (sim/census_simulator.h) steps by.
//
// All integer-valued samplers use *exact inversion*: one `next_unit()` draw
// is inverted through the target CDF, enumerating probabilities outward from
// the mode with pmf ratio recurrences (log-factorials seed the mode's pmf).
// Expected cost is O(standard deviation) per draw, there is no rejection
// loop, and every sampler consumes *at most* one uniform — exactly one for a
// non-degenerate draw, none when the support is a single point (binomial
// with p ∈ {0, 1} or n = 0, hypergeometric with lo == hi, zero-draw MVH
// categories).  The census simulator's table path relies on that
// zero-consumption when skipping empty categories, so treat it as part of
// the contract.
#pragma once

#include <cstdint>
#include <span>

#include "sim/rng.h"

namespace plurality::sim::dist {

/// ln(n!), exact to ~1 ulp: tabulated for small n, Stirling series above.
[[nodiscard]] double log_factorial(std::uint64_t n) noexcept;

/// Binomial(n, p) variate: successes in n Bernoulli(p) trials.
[[nodiscard]] std::uint64_t binomial(rng& gen, std::uint64_t n, double p) noexcept;

/// Hypergeometric variate: successes when drawing `draws` items without
/// replacement from a population of `total` items of which `successes` are
/// marked.  Requires successes <= total and draws <= total.
[[nodiscard]] std::uint64_t hypergeometric(rng& gen, std::uint64_t total,
                                           std::uint64_t successes,
                                           std::uint64_t draws) noexcept;

/// Multivariate hypergeometric: draws `draws` items without replacement from
/// an urn whose category sizes are `counts`, writing the per-category draw
/// counts into `out` (same length as `counts`; Σ out == draws).  Sampled by
/// sequential conditioning — category i's count is hypergeometric given the
/// items left — so the cost is one hypergeometric variate per category.
/// Requires draws <= Σ counts.
void multivariate_hypergeometric(rng& gen, std::span<const std::uint64_t> counts,
                                 std::uint64_t draws, std::span<std::uint64_t> out) noexcept;

/// Multinomial variate: distributes `draws` independent trials over
/// categories with nonnegative `weights`, writing per-category trial counts
/// into `out` (same length as `weights`; Σ out == draws).  Sampled by
/// sequential conditioning — category i's count is Binomial(remaining draws,
/// w_i / remaining weight), the row-conditioned binomial split — so the cost
/// is one binomial variate per category.  Zero-weight (and trailing forced)
/// categories consume no randomness, matching the zero-consumption contract
/// of the without-replacement samplers above.  This is the with-replacement
/// sibling of `multivariate_hypergeometric`: contingency-table row splits
/// and aggregate draws of counted random δ outcomes (ROADMAP item 1) build
/// on it.  Requires Σ weights > 0 when draws > 0.
void multinomial(rng& gen, std::span<const double> weights, std::uint64_t draws,
                 std::span<std::uint64_t> out) noexcept;

/// Length of the maximal *collision-free run* of scheduler interactions: the
/// largest L such that the next L uniform ordered pairs of distinct agents
/// touch 2L pairwise-distinct agents (the birthday problem over pairs).
struct collision_run {
    std::uint64_t length = 0;  ///< collision-free interactions sampled (<= cap)
    bool collided = false;     ///< interaction length+1 collides (always false at cap)
};

/// ln P(L >= l) for the collision-free run length above, evaluated in closed
/// form — O(1), no product loop.  Exact up to floating-point rounding:
/// small populations go through the tabulated log-factorials, large ones
/// through a cancellation-free rearrangement of the Stirling series (the
/// naive lgamma difference loses ~10 digits at n = 10⁹; this form keeps
/// absolute error around 1e-11).  Returns 0.0 for l <= 1 (the first
/// interaction is always collision-free) and -infinity when 2l agents cannot
/// be distinct.  Requires population >= 2.
[[nodiscard]] double log_collision_free_survival(std::uint64_t population,
                                                 std::uint64_t length) noexcept;

/// Samples the collision-free run length for a population of n agents,
/// truncated at `cap`: returns min(L, cap) together with whether the run
/// really ended in a collision (length < cap) or was cut by the cap.  The
/// law is P(L >= l) = Π_{t<l} (n-2t)(n-2t-1) / (n(n-1)); one uniform is
/// inverted through its closed-form log-survival function by bracketed
/// search seeded at the Gaussian approximation L ≈ √(-n·ln u / 2), in
/// O(log cap) instead of walking the survival product one interaction at a
/// time.  This is what makes a table run's cost independent of the run
/// length L ≈ √n (sim/census_simulator.h).
/// Consumes exactly one uniform.  Requires n >= 2 and cap >= 1; the first
/// interaction is always collision-free, so length >= 1.
[[nodiscard]] collision_run sample_collision_free_run_leap(rng& gen, std::uint64_t population,
                                                           std::uint64_t cap) noexcept;

}  // namespace plurality::sim::dist
