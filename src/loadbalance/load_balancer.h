// Discrete load balancing by pairwise floor/ceil averaging (Berenbrink,
// Friedetzky, Kaaser, Kling, IPDPS 2019 [12]; Mocquard, Robin, Sericola,
// Anceaume [28]).
//
// This is the cancellation phase of the tournament (Algorithm 4, line 8):
// two agents holding signed integer loads replace them by the floor and the
// ceiling of their average.  The sum is invariant; after O(log n) parallel
// time the discrepancy (max - min) is a small constant w.h.p.
#pragma once

#include <cstdint>
#include <span>

#include "sim/population_view.h"

namespace plurality::loadbalance {

/// Floor division that rounds toward negative infinity (C++ `/` truncates
/// toward zero, which would bias negative loads).
[[nodiscard]] constexpr std::int64_t floor_div2(std::int64_t value) noexcept {
    return value >> 1;  // arithmetic shift: floor for negatives as well
}

/// One averaging step: initiator receives the floor, responder the ceiling
/// (paper's (⌊(ℓu+ℓv)/2⌋, ⌈(ℓu+ℓv)/2⌉)).
constexpr void average_pair(std::int64_t& initiator_load, std::int64_t& responder_load) noexcept {
    const std::int64_t sum = initiator_load + responder_load;
    const std::int64_t low = floor_div2(sum);
    initiator_load = low;
    responder_load = sum - low;
}

/// Standalone load-balancing protocol used by unit tests and experiment E11.
struct load_agent {
    std::int64_t load = 0;
};

struct load_balance_protocol {
    using agent_t = load_agent;
    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept {
        average_pair(initiator.load, responder.load);
    }
};

/// Sum of all loads (invariant under the protocol).
template <sim::view::population_of<load_agent> Pop>
[[nodiscard]] std::int64_t total_load(const Pop& pop) {
    return sim::view::weighted_sum(pop, [](const load_agent& a) { return a.load; });
}

/// max(load) - min(load); 0 on an empty population.
template <sim::view::population_of<load_agent> Pop>
[[nodiscard]] std::int64_t discrepancy(const Pop& pop) {
    const auto range = sim::view::extrema(pop, [](const load_agent& a) { return a.load; });
    return range.has_value() ? range->second - range->first : 0;
}

/// Runs the protocol on the given initial loads and returns the parallel
/// time until the discrepancy first drops to `target_discrepancy` (or the
/// budget in parallel time units runs out, in which case the returned time
/// is negative).
[[nodiscard]] double measure_balancing_time(std::span<const std::int64_t> initial_loads,
                                            std::int64_t target_discrepancy, double budget,
                                            std::uint64_t seed);

}  // namespace plurality::loadbalance
