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

#include "sim/rng.h"

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
    void interact(agent_t& initiator, agent_t& responder, sim::rng&) const noexcept {
        average_pair(initiator.load, responder.load);
    }

    /// Leap-backend hook (sim/group_delta.h): floor/ceil
    /// averaging never consults the RNG, so every ordered state pair is
    /// deterministic.
    [[nodiscard]] bool deterministic_delta(const agent_t&, const agent_t&) const noexcept {
        return true;
    }
};

/// Census codec (sim/census_simulator.h): the signed load is the whole
/// state.
struct loadbalance_census_codec {
    using key_t = std::uint64_t;
    [[nodiscard]] static key_t encode(const load_agent& agent) noexcept {
        return static_cast<key_t>(agent.load);
    }
};

/// Sum of all loads (invariant under the protocol).
[[nodiscard]] std::int64_t total_load(std::span<const load_agent> agents) noexcept;

/// max(load) - min(load).
[[nodiscard]] std::int64_t discrepancy(std::span<const load_agent> agents) noexcept;

/// Runs the protocol on the given initial loads and returns the parallel
/// time until the discrepancy first drops to `target_discrepancy` (or the
/// budget in parallel time units runs out, in which case the returned time
/// is negative).
[[nodiscard]] double measure_balancing_time(std::span<const std::int64_t> initial_loads,
                                            std::int64_t target_discrepancy, double budget,
                                            std::uint64_t seed);

}  // namespace plurality::loadbalance
