// Leader election via synchronized coin-flip elimination — the substrate the
// unordered tournament variant uses to pick challengers (Appendix B).
//
// The paper invokes the protocol of Gąsieniec and Stachowiak (J.ACM 2021,
// [23]) as a black box with the contract "unique leader w.h.p. within
// O(log² n) parallel time, and the leader knows when the protocol is done".
// We implement that contract with the repository's own clock machinery (see
// docs/ARCHITECTURE.md's substitution notes):
//
//  * a leaderless phase clock partitions time into *rounds* (one clock
//    revolution each, i.e. Θ(log n) parallel time),
//  * every agent starts as a candidate and flips a coin at the start of
//    each round,
//  * the OR of all candidates' coins spreads epidemically within the round
//    (tagged by the round id so stale bits cannot leak across rounds),
//  * at the next round boundary, candidates that flipped 0 while some
//    candidate flipped 1 retire — the candidate set roughly halves,
//  * candidates surviving `total_rounds` = Θ(log n) rounds declare
//    themselves leader; w.h.p. exactly one does.
//
// Meeting candidates also eliminate directly (the responder retires), which
// only speeds up the tail and can never remove the last candidate.
#pragma once

#include <cstdint>

#include "clocks/leaderless_clock.h"
#include "sim/delta_outcomes.h"
#include "sim/population_view.h"
#include "sim/rng.h"

namespace plurality::leader {

/// Field order and widths leave no padding bytes (sim::census_agent).
struct leader_agent {
    std::uint32_t count = 0;       ///< leaderless clock counter
    std::uint16_t rounds_done = 0;
    std::uint16_t round_tag = 0;   ///< round id modulo a small constant
    bool candidate = true;
    bool coin = false;
    bool saw_one = false;
    bool leader = false;
};

class leader_election_protocol {
public:
    using agent_t = leader_agent;

    /// Round tags only need to distinguish neighbouring rounds (clock skew
    /// is <= 1 round w.h.p.), so a small modulus suffices — this is how the
    /// protocol avoids storing a Θ(log n)-valued round id in every agent.
    static constexpr std::uint16_t round_tag_modulus = 16;

    leader_election_protocol(std::uint32_t psi, std::uint16_t total_rounds)
        : psi_(psi), total_rounds_(total_rounds) {}

    /// The transition function, templated over the generator and
    /// explicitly instantiated for `sim::rng` and `sim::delta_replay` in
    /// leader_election.cpp, so the randomized-δ enumerator
    /// (sim/delta_outcomes.h) can replay it against scripted choices.  Every
    /// random choice's distribution depends only on the ordered state pair
    /// (the clock's tie-break coin fires iff the counters are equal, the
    /// round coin iff the wrapping agent is a candidate), so every pair
    /// enumerates, and a pair that meets neither condition makes no choice
    /// at all.
    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R& gen) const noexcept;

    [[nodiscard]] std::uint16_t total_rounds() const noexcept { return total_rounds_; }
    [[nodiscard]] std::uint32_t psi() const noexcept { return psi_; }

private:
    template <class R>
    void advance_round(agent_t& agent, R& gen) const noexcept;

    std::uint32_t psi_;
    std::uint16_t total_rounds_;
};

/// Default parameters for a population of size n.
[[nodiscard]] std::uint32_t default_psi(std::uint32_t n) noexcept;
[[nodiscard]] std::uint16_t default_rounds(std::uint32_t n) noexcept;

/// Agents still in the running.
template <sim::view::population_of<leader_agent> Pop>
[[nodiscard]] std::size_t candidate_count(const Pop& pop) {
    return sim::view::count_if(pop, [](const leader_agent& a) { return a.candidate; });
}

/// Agents that declared themselves leader: the election is correct when
/// exactly one did (a weighted count, not a forall).
template <sim::view::population_of<leader_agent> Pop>
[[nodiscard]] std::size_t leader_count(const Pop& pop) {
    return sim::view::count_if(pop, [](const leader_agent& a) { return a.leader; });
}

/// True once every agent has finished `total_rounds` rounds (the election is
/// over; leaders, if any, have declared).
template <sim::view::population_of<leader_agent> Pop>
[[nodiscard]] bool election_finished(const Pop& pop, std::uint16_t total_rounds) {
    return sim::view::all_of(
        pop, [total_rounds](const leader_agent& a) { return a.rounds_done >= total_rounds; });
}

}  // namespace plurality::leader
