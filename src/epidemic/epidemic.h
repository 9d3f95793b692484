// One-way epidemic (rumor spreading / broadcast), the information-spreading
// workhorse the paper uses for phase propagation, winner dissemination and
// challenger announcements ([5]; paper §3, Appendix B).
//
// In an interaction (u, v) the responder v copies the rumor from the
// initiator u.  Starting from one informed agent, all n agents are informed
// within Θ(log n) parallel time w.h.p.
#pragma once

#include <cstdint>

#include "sim/population_view.h"

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
template <sim::view::population_of<epidemic_agent> Pop>
[[nodiscard]] std::size_t informed_count(const Pop& pop) {
    return sim::view::count_if(pop, [](const epidemic_agent& a) { return a.informed != 0; });
}

/// Share of informed agents.
template <sim::view::population_of<epidemic_agent> Pop>
[[nodiscard]] double informed_fraction(const Pop& pop) {
    return sim::view::fraction(pop, [](const epidemic_agent& a) { return a.informed != 0; });
}

/// True once every agent is informed: the broadcast is over.
template <sim::view::population_of<epidemic_agent> Pop>
[[nodiscard]] bool all_informed(const Pop& pop) {
    return sim::view::all_of(pop, [](const epidemic_agent& a) { return a.informed != 0; });
}

/// True when every agent carries `payload`: the content spread with the bit.
template <sim::view::population_of<epidemic_agent> Pop>
[[nodiscard]] bool all_carry_payload(const Pop& pop, std::uint32_t payload) {
    return sim::view::all_of(pop,
                             [payload](const epidemic_agent& a) { return a.payload == payload; });
}

}  // namespace plurality::epidemic
