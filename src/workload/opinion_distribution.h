// Initial opinion configurations ("workloads") for plurality-consensus
// experiments.
//
// A distribution is the vector x = (x_1, ..., x_k) of initial supports
// (paper §2).  Generators cover the regimes the paper reasons about:
//
//  * bias-1 worst cases (exactness is only interesting at bias 1),
//  * one dominant opinion plus many insignificant "dust" opinions
//    (the regime where ImprovedAlgorithm's pruning shines, §4),
//  * near-uniform and Zipf-distributed supports.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace plurality::workload {

/// Supports per opinion; `support[i]` is the number of agents that initially
/// hold opinion i+1 (opinions are 1-based everywhere, matching the paper).
class opinion_distribution {
public:
    opinion_distribution() = default;
    explicit opinion_distribution(std::vector<std::uint32_t> support);

    [[nodiscard]] std::uint32_t n() const noexcept { return total_; }
    [[nodiscard]] std::uint32_t k() const noexcept {
        return static_cast<std::uint32_t>(support_.size());
    }
    [[nodiscard]] const std::vector<std::uint32_t>& support() const noexcept { return support_; }
    [[nodiscard]] std::uint32_t support_of(std::uint32_t opinion) const {
        return support_.at(opinion - 1);
    }

    /// 1-based index of the most supported opinion (smallest index wins a
    /// tie, but generators below always make the plurality unique).
    [[nodiscard]] std::uint32_t plurality_opinion() const;

    /// Largest initial support x_max.
    [[nodiscard]] std::uint32_t x_max() const;

    /// Difference between the largest and second-largest support; by
    /// convention `n` when k == 1.
    [[nodiscard]] std::uint32_t bias() const;

    /// True if the maximum support is attained by exactly one opinion.
    [[nodiscard]] bool plurality_unique() const;

private:
    std::vector<std::uint32_t> support_;
    std::uint32_t total_ = 0;
};

/// k opinions as equal as possible, then adjusted so the plurality (opinion
/// 1) leads opinion 2 by exactly `bias` agents.  The canonical worst case for
/// exact plurality.  Requires n >= k >= 1 and a feasible bias.
[[nodiscard]] opinion_distribution make_bias_one(std::uint32_t n, std::uint32_t k,
                                                 std::uint32_t bias = 1);

/// Every agent draws an opinion uniformly; the result is then minimally
/// repaired so the plurality is unique.
[[nodiscard]] opinion_distribution make_uniform_random(std::uint32_t n, std::uint32_t k,
                                                       sim::rng& gen);

/// Zipf(s) support over k opinions (heaviest first), repaired to a unique
/// plurality.  s = 1 is the classic heavy-tail regime.
[[nodiscard]] opinion_distribution make_zipf(std::uint32_t n, std::uint32_t k, double s,
                                             sim::rng& gen);

/// One dominant opinion holding `dominant_fraction` of the agents; the rest
/// spread evenly over `dust_opinions` small opinions.  This is the §4 regime:
/// n/x_max is small although k may be large.
[[nodiscard]] opinion_distribution make_dominant_plus_dust(std::uint32_t n,
                                                           double dominant_fraction,
                                                           std::uint32_t dust_opinions);

/// Two heavyweight opinions with gap exactly `bias`, plus `dust_opinions`
/// insignificant ones.  Exercises pruning *and* a bias-1 final tournament.
[[nodiscard]] opinion_distribution make_two_heavy_plus_dust(std::uint32_t n, std::uint32_t bias,
                                                            std::uint32_t dust_opinions);

}  // namespace plurality::workload
