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
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.h"
#include "workload/opinion_distribution.h"

namespace plurality::baselines {

struct usd_agent {
    std::uint32_t opinion = 0;  ///< 0 = undecided, otherwise 1..k
};

struct usd_plurality_protocol {
    using agent_t = usd_agent;

    void interact(agent_t& initiator, agent_t& responder, sim::rng&) const noexcept {
        if (initiator.opinion == 0) return;
        if (responder.opinion == 0) {
            responder.opinion = initiator.opinion;
        } else if (responder.opinion != initiator.opinion) {
            responder.opinion = 0;
        }
    }

    /// Leap-backend hook (sim/group_delta.h): δ never consults
    /// the RNG, so every ordered state pair is deterministic.
    [[nodiscard]] bool deterministic_delta(const agent_t&, const agent_t&) const noexcept {
        return true;
    }
};

/// Census codec (sim/census_simulator.h): the opinion is the whole state.
struct usd_census_codec {
    using key_t = std::uint64_t;
    [[nodiscard]] static key_t encode(const usd_agent& agent) noexcept { return agent.opinion; }
};

/// True when all agents hold the same decided opinion.
[[nodiscard]] bool consensus_reached(std::span<const usd_agent> agents) noexcept;

/// The consensus opinion (0 if none yet).
[[nodiscard]] std::uint32_t consensus_opinion(std::span<const usd_agent> agents) noexcept;

/// Builds the initial population from an opinion distribution (shuffled).
[[nodiscard]] std::vector<usd_agent> make_usd_population(
    const workload::opinion_distribution& dist, sim::rng& gen);

/// Outcome of one USD run.
struct usd_result {
    bool converged = false;
    bool correct = false;
    std::uint32_t winner_opinion = 0;
    double parallel_time = 0.0;
};

/// Runs USD until consensus or until `time_budget` parallel time.
[[nodiscard]] usd_result run_usd(const workload::opinion_distribution& dist, std::uint64_t seed,
                                 double time_budget);

}  // namespace plurality::baselines
