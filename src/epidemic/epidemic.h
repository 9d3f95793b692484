// One-way epidemic (rumor spreading / broadcast), the information-spreading
// workhorse the paper uses for phase propagation, winner dissemination and
// challenger announcements ([5]; paper §3, Appendix B).
//
// In an interaction (u, v) the responder v copies the rumor from the
// initiator u.  Starting from one informed agent, all n agents are informed
// within Θ(log n) parallel time w.h.p.
#pragma once

#include <cstdint>
#include <span>

#include "sim/rng.h"
#include "sim/simulation.h"

namespace plurality::epidemic {

/// Agent state: informed or not, plus an optional payload value so tests can
/// check that the *content* spreads, not just a bit.
struct epidemic_agent {
    bool informed = false;
    std::uint32_t payload = 0;
};

/// The one-way epidemic protocol itself.
struct epidemic_protocol {
    using agent_t = epidemic_agent;

    void interact(agent_t& initiator, agent_t& responder, sim::rng&) const noexcept {
        if (initiator.informed && !responder.informed) {
            responder.informed = true;
            responder.payload = initiator.payload;
        }
    }

    /// Leap-backend hook (sim/group_delta.h): δ never consults
    /// the RNG, so every ordered state pair is deterministic and grouped
    /// interactions share one evaluation.
    [[nodiscard]] bool deterministic_delta(const agent_t&, const agent_t&) const noexcept {
        return true;
    }
};

/// Census codec (sim/census_simulator.h): informed bit plus payload.
struct epidemic_census_codec {
    using key_t = std::uint64_t;
    [[nodiscard]] static key_t encode(const epidemic_agent& agent) noexcept {
        return (static_cast<key_t>(agent.informed ? 1 : 0) << 32) | agent.payload;
    }
};

/// Number of informed agents.
[[nodiscard]] std::size_t informed_count(std::span<const epidemic_agent> agents) noexcept;

/// Runs a broadcast from `sources` informed agents out of `n` and returns the
/// parallel time until everyone is informed.
[[nodiscard]] double measure_broadcast_time(std::uint32_t n, std::uint32_t sources,
                                            std::uint64_t seed);

}  // namespace plurality::epidemic
