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

#include "sim/simulation.h"

namespace plurality::epidemic {

/// Agent state: informed or not, plus an optional payload value so tests can
/// check that the *content* spreads, not just a bit.  The flag takes a whole
/// word so that the struct has no padding bytes (sim::census_agent).
struct epidemic_agent {
    std::uint32_t informed = 0;  ///< 0 or 1
    std::uint32_t payload = 0;
};

/// The one-way epidemic protocol itself.
struct epidemic_protocol {
    using agent_t = epidemic_agent;

    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept {
        if (initiator.informed && !responder.informed) {
            responder.informed = 1;
            responder.payload = initiator.payload;
        }
    }
};

/// Number of informed agents.
[[nodiscard]] std::size_t informed_count(std::span<const epidemic_agent> agents) noexcept;

/// Runs a broadcast from `sources` informed agents out of `n` and returns the
/// parallel time until everyone is informed.
[[nodiscard]] double measure_broadcast_time(std::uint32_t n, std::uint32_t sources,
                                            std::uint64_t seed);

}  // namespace plurality::epidemic
