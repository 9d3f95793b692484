// The 3-state approximate majority protocol of Angluin, Aspnes and Eisenstat
// (Distributed Computing 2008, [4]): the classic "undecided state dynamics"
// for two opinions.
//
//   (X, U) -> (X, X)   a decided initiator converts an undecided responder,
//   (X, Y) -> (X, U)   opposite decided opinions push the responder to U.
//
// Converges in O(log n) parallel time, and identifies the initial majority
// w.h.p. *only if* the bias is Ω(sqrt(n log n)).  It serves as the
// approximate baseline of experiment E8: fast, but wrong half the time at
// bias 1 — exactly the gap the paper's exact protocols close.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/census_store.h"
#include "sim/population_view.h"

namespace plurality::majority {

enum class binary_opinion : std::uint8_t { undecided = 0, alpha = 1, beta = 2 };

struct three_state_agent {
    binary_opinion opinion = binary_opinion::undecided;
};

struct three_state_protocol {
    using agent_t = three_state_agent;

    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept {
        using enum binary_opinion;
        if (initiator.opinion == undecided) return;
        if (responder.opinion == undecided) {
            responder.opinion = initiator.opinion;
        } else if (responder.opinion != initiator.opinion) {
            responder.opinion = undecided;
        }
    }
};

/// The common decided opinion, or `undecided` if there is none (mixed or
/// all-undecided configuration).
template <sim::view::population_of<three_state_agent> Pop>
[[nodiscard]] binary_opinion consensus_value(const Pop& pop) {
    const auto opinion = [](const three_state_agent& a) { return a.opinion; };
    return sim::view::unanimous(pop, opinion).value_or(binary_opinion::undecided);
}

/// True when every agent holds the same decided opinion.
template <sim::view::population_of<three_state_agent> Pop>
[[nodiscard]] bool consensus_reached(const Pop& pop) {
    return consensus_value(pop) != binary_opinion::undecided;
}

/// Share of undecided agents.
template <sim::view::population_of<three_state_agent> Pop>
[[nodiscard]] double undecided_fraction(const Pop& pop) {
    return sim::view::fraction(
        pop, [](const three_state_agent& a) { return a.opinion == binary_opinion::undecided; });
}

/// The initial census with the given support counts: `alpha`, `beta` and
/// `undecided` agents.
[[nodiscard]] std::vector<sim::census_entry<three_state_agent>> three_state_census(
    std::uint64_t alpha, std::uint64_t beta, std::uint64_t undecided);

}  // namespace plurality::majority
