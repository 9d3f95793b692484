// Running the tournament protocols to consensus, plus the readouts of a
// configuration that the scenario specs, tests and experiments share
// (winner consensus, role balance, token conservation, surviving
// opinions, ...).
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/agent.h"
#include "core/config.h"
#include "sim/population_view.h"
#include "workload/opinion_distribution.h"

namespace plurality::core {

/// Outcome of one full protocol execution.
struct consensus_result {
    bool converged = false;  ///< all agents carry the winner bit
    bool correct = false;    ///< ... and agree on the true plurality opinion
    std::uint32_t winner_opinion = 0;
    double parallel_time = 0.0;
    std::uint64_t interactions = 0;
};

/// Runs the configured protocol on the agent backend from the given initial
/// distribution until all agents output a winner, or until the config's
/// default parallel-time budget elapses.  It seeds, lays out and checks the
/// run as the scenario driver does (sim::setup_stream and sim::run_stream,
/// a check every n interactions), so on a `plurality/<mode>` scenario's own
/// (cfg, dist) it runs exactly that scenario's trial of `seed`; it exists
/// for configurations no scenario builds, such as E9's ablations.
[[nodiscard]] consensus_result run_to_consensus(const protocol_config& cfg,
                                                const workload::opinion_distribution& dist,
                                                std::uint64_t seed);

// -- readouts ----------------------------------------------------------------
//
// Every readout of the tournament's configuration, written once over any
// population view (sim/population_view.h): the agent and census backends,
// and plain agent ranges.  `all_winners` is the convergence predicate and
// `consensus_opinion` the answer the plurality scenarios check.

/// Agents per role, indexed by agent_role's underlying value.
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] std::array<std::size_t, 4> role_counts(const Pop& pop) {
    std::array<std::size_t, 4> counts{};
    sim::view::visit_states(pop, [&counts](const core_agent& a, std::uint64_t count) {
        counts[static_cast<std::size_t>(a.role)] += count;
        return true;
    });
    return counts;
}

/// Total tokens currently held by collectors of `opinion` (T_i(t) of §4).
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] std::uint64_t tokens_of_opinion(const Pop& pop, std::uint32_t opinion) {
    const auto held = [opinion](const core_agent& a) {
        return a.role == agent_role::collector && a.opinion == opinion ? a.tokens : 0;
    };
    return static_cast<std::uint64_t>(sim::view::weighted_sum(pop, held));
}

/// Distinct opinions still represented by a token-holding collector, in
/// increasing order.
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] std::vector<std::uint32_t> surviving_opinions(const Pop& pop) {
    std::set<std::uint32_t> opinions;
    sim::view::visit_states(pop, [&opinions](const core_agent& a, std::uint64_t) {
        if (a.role == agent_role::collector && a.tokens > 0 && a.opinion != 0) {
            opinions.insert(a.opinion);
        }
        return true;
    });
    return {opinions.begin(), opinions.end()};
}

/// True once no agent is in the initialization stage.
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] bool init_finished(const Pop& pop) {
    return sim::view::all_of(pop,
                             [](const core_agent& a) { return a.stage != lifecycle_stage::init; });
}

/// True once every agent carries the winner bit.
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] bool all_winners(const Pop& pop) {
    return sim::view::all_of(pop, [](const core_agent& a) { return a.winner; });
}

/// The opinion all agents agree on (0 if they do not agree or not all are
/// winners yet).
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] std::uint32_t consensus_opinion(const Pop& pop) {
    // A non-winner maps to opinion 0, which is never a consensus opinion,
    // so any non-winner blocks unanimity.
    const auto output = [](const core_agent& a) { return a.winner ? a.opinion : 0u; };
    return sim::view::unanimous(pop, output).value_or(0u);
}

/// Number of trackers currently flagged as leader (unordered modes).  The
/// leader stays a tracker until the final broadcast converts it into a
/// winner collector, so a converged configuration counts none.
template <sim::view::population_of<core_agent> Pop>
[[nodiscard]] std::size_t leader_count(const Pop& pop) {
    return sim::view::count_if(pop, [](const core_agent& a) {
        return a.role == agent_role::tracker && a.is_leader;
    });
}

}  // namespace plurality::core
