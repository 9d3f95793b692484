// A 4-state *stable* (always correct) exact-majority protocol in the style
// of Bénézit, Blondel, Thiran, Tsitsiklis and Vetterli's binary interval
// consensus — the classic example of the "always correct but slow" regime
// the paper contrasts its w.h.p. protocols against (§1).
//
// States: strong ±1 tokens and weak followers that remember the sign that
// last converted them.
//
//   (+1, −1)          -> (weak+, weak−)   cancellation (token difference is invariant)
//   (±1, weak∓)       -> (±1, weak±)      a strong agent flips an opposing weak one
//
// With initial bias b > 0, exactly b strong majority tokens survive all
// cancellations (with probability 1), and they eventually convert every weak
// agent: correct for *any* b >= 1, but the last cancellation needs Θ(n)
// parallel time in expectation at b = 1.  Ties (b = 0) never stabilize to a
// wrong answer; all strong tokens vanish and the weak signs stay mixed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/census_store.h"

namespace plurality::majority {

enum class four_state : std::uint8_t { strong_plus, strong_minus, weak_plus, weak_minus };

struct four_state_agent {
    four_state state = four_state::weak_plus;
};

struct stable_four_state_protocol {
    using agent_t = four_state_agent;

    /// δ, templated over the generator and explicitly instantiated for
    /// `sim::rng` and `sim::delta_replay` in stable_four_state.cpp.
    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept;
};

/// +1 / -1 / 0: the sign an agent currently outputs.
[[nodiscard]] int output_sign(const four_state_agent& agent) noexcept;

/// True when all agents output the same nonzero sign.
[[nodiscard]] bool consensus_reached(std::span<const four_state_agent> agents) noexcept;

/// The sign all agents agree on (0 if no consensus).
[[nodiscard]] int consensus_sign(std::span<const four_state_agent> agents) noexcept;

/// Invariant check: #strong_plus - #strong_minus (equals the initial bias at
/// all times).
[[nodiscard]] std::int64_t strong_token_difference(
    std::span<const four_state_agent> agents) noexcept;

/// The initial census of `plus` supporters, `minus` opponents and `blank`
/// agents without an opinion.  The protocol has no blank state, so the
/// blank agents join the plus side: plus + blank strong-plus agents and
/// minus strong-minus agents.
[[nodiscard]] std::vector<sim::census_entry<four_state_agent>> four_state_census(
    std::uint64_t plus, std::uint64_t minus, std::uint64_t blank);

}  // namespace plurality::majority
