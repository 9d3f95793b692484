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

#include "sim/rng.h"

namespace plurality::majority {

enum class binary_opinion : std::uint8_t { undecided = 0, alpha = 1, beta = 2 };

struct three_state_agent {
    binary_opinion opinion = binary_opinion::undecided;
};

struct three_state_protocol {
    using agent_t = three_state_agent;

    void interact(agent_t& initiator, agent_t& responder, sim::rng&) const noexcept {
        using enum binary_opinion;
        if (initiator.opinion == undecided) return;
        if (responder.opinion == undecided) {
            responder.opinion = initiator.opinion;
        } else if (responder.opinion != initiator.opinion) {
            responder.opinion = undecided;
        }
    }

    /// Leap-backend hook (sim/group_delta.h): δ never consults
    /// the RNG, so every ordered state pair is deterministic.
    [[nodiscard]] bool deterministic_delta(const agent_t&, const agent_t&) const noexcept {
        return true;
    }
};

/// Census codec (sim/census_simulator.h): three states, one key each.
struct three_state_census_codec {
    using key_t = std::uint64_t;
    [[nodiscard]] static key_t encode(const three_state_agent& agent) noexcept {
        return static_cast<key_t>(agent.opinion);
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

/// Outcome of one full three-state run.
struct three_state_result {
    bool converged = false;
    binary_opinion value = binary_opinion::undecided;
    double parallel_time = 0.0;
    std::uint64_t interactions = 0;
};

/// Runs the protocol until consensus or until `time_budget` parallel time.
[[nodiscard]] three_state_result run_three_state(std::uint32_t alpha_count,
                                                 std::uint32_t beta_count, std::uint32_t undecided,
                                                 std::uint64_t seed, double time_budget);

}  // namespace plurality::majority
