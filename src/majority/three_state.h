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
#include <span>
#include <vector>

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

/// True when every agent holds the same decided opinion.
[[nodiscard]] bool consensus_reached(std::span<const three_state_agent> agents) noexcept;

/// The common decided opinion, or `undecided` if there is none (mixed or
/// all-undecided configuration).
[[nodiscard]] binary_opinion consensus_value(std::span<const three_state_agent> agents) noexcept;

/// Builds an initial configuration with the given support counts.
[[nodiscard]] std::vector<three_state_agent> make_three_state_population(std::uint32_t alpha_count,
                                                                         std::uint32_t beta_count,
                                                                         std::uint32_t undecided);

}  // namespace plurality::majority
