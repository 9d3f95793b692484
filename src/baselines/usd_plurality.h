// Undecided-state dynamics for k opinions — the classic *approximate*
// plurality-consensus baseline (in the spirit of [7] and of the 3-state
// majority of [4], generalized to k opinions).
//
//   (i, U) -> (i, i)   a decided initiator recruits an undecided responder,
//   (i, j) -> (i, U)   clashing decided opinions push the responder to U.
//
// Fast — consensus in polylog parallel time — but only *approximately*
// correct: it identifies the plurality w.h.p. only when the bias is
// Ω(sqrt(n log n)).  Experiment E10 shows it coin-flips at bias 1, the case
// the paper's exact protocols are built for, while winning on raw speed at
// large bias.
//
// At k = 2 this δ is the 3-state approximate majority of Angluin, Aspnes
// and Eisenstat [4], with opinion 1 as α, 2 as β and 0 as undecided: the
// `majority/three-state` scenario and experiment E8's approximate side run
// it from `binary_census`.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/census_store.h"
#include "sim/population_view.h"
#include "workload/opinion_distribution.h"

namespace plurality::baselines {

struct usd_agent {
    std::uint32_t opinion = 0;  ///< 0 = undecided, otherwise 1..k
};

struct usd_plurality_protocol {
    using agent_t = usd_agent;

    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept {
        if (initiator.opinion == 0) return;
        if (responder.opinion == 0) {
            responder.opinion = initiator.opinion;
        } else if (responder.opinion != initiator.opinion) {
            responder.opinion = 0;
        }
    }
};

/// The decided opinion all agents share (0 while mixed or undecided).
template <sim::view::population_of<usd_agent> Pop>
[[nodiscard]] std::uint32_t consensus_opinion(const Pop& pop) {
    return sim::view::unanimous(pop, [](const usd_agent& a) { return a.opinion; }).value_or(0u);
}

/// True when all agents hold the same decided opinion.
template <sim::view::population_of<usd_agent> Pop>
[[nodiscard]] bool consensus_reached(const Pop& pop) {
    return consensus_opinion(pop) != 0;
}

/// Share of undecided agents.
template <sim::view::population_of<usd_agent> Pop>
[[nodiscard]] double undecided_fraction(const Pop& pop) {
    return sim::view::fraction(pop, [](const usd_agent& a) { return a.opinion == 0; });
}

/// The initial configuration as a census: one entry per supported opinion,
/// in opinion order.
[[nodiscard]] std::vector<sim::census_entry<usd_agent>> initial_census(
    const workload::opinion_distribution& dist);

/// The two-opinion census of the 3-state majority: `alpha` agents on
/// opinion 1, `beta` on opinion 2 and `undecided` on 0, in that order.
[[nodiscard]] std::vector<sim::census_entry<usd_agent>> binary_census(std::uint64_t alpha,
                                                                      std::uint64_t beta,
                                                                      std::uint64_t undecided);

}  // namespace plurality::baselines
