#include "leader/leader_election.h"

#include "util/math.h"

namespace plurality::leader {

template <class R>
void leader_election_protocol::advance_round(agent_t& agent, R& gen) const noexcept {
    agent.round_tag = static_cast<std::uint16_t>((agent.round_tag + 1) % round_tag_modulus);
    if (agent.rounds_done < total_rounds_) ++agent.rounds_done;

    // Entering a new round: first settle last round's retirement, then flip
    // the coin for the new round.
    if (agent.candidate && !agent.coin && agent.saw_one) agent.candidate = false;
    agent.coin = agent.candidate && gen.next_bool();
    agent.saw_one = agent.coin;

    if (agent.rounds_done >= total_rounds_ && agent.candidate) agent.leader = true;
}

template <class R>
void leader_election_protocol::interact(agent_t& initiator, agent_t& responder,
                                        R& gen) const noexcept {
    // 1. Clock: one of the two counters ticks; a wrap starts a new round.
    //    Rounds advance *only* through an agent's own counter wrap: the
    //    leaderless tick rule already keeps the counters (and hence the
    //    round boundaries) tightly bunched, and an additional round
    //    broadcast would make dragged-along agents wrap a second time,
    //    collapsing the round length to the broadcast time.
    const clocks::tick_result tick =
        clocks::leaderless_tick(initiator.count, responder.count, psi_, gen);
    if (tick.initiator_wrapped) advance_round(initiator, gen);
    if (tick.responder_wrapped) advance_round(responder, gen);

    // 2. Within the same round: spread the "some candidate flipped 1" bit.
    //    (Across a round boundary the tags differ for a few ticks and no
    //    information flows — by design, stale bits must not leak.)
    if (initiator.round_tag == responder.round_tag) {
        const bool any = initiator.saw_one || responder.saw_one;
        initiator.saw_one = any;
        responder.saw_one = any;

        // Direct elimination: two meeting candidates reduce to one.  The
        // survivor inherits the victim's coin so the invariant "some
        // heads-flipping candidate survives the round" is preserved —
        // otherwise eliminating the only heads candidate would let the
        // saw_one bit retire everyone else.
        if (initiator.candidate && responder.candidate && !responder.leader) {
            responder.candidate = false;
            initiator.coin = initiator.coin || responder.coin;
        }
    }
}

// The two generators δ ever runs against: the real stream and the
// enumerating replay (sim/delta_outcomes.h).
template void leader_election_protocol::interact<sim::rng>(agent_t&, agent_t&,
                                                           sim::rng&) const noexcept;
template void leader_election_protocol::interact<sim::delta_replay>(
    agent_t&, agent_t&, sim::delta_replay&) const noexcept;

std::uint32_t default_psi(std::uint32_t n) noexcept {
    return 4 * (util::ceil_log2(n < 2 ? 2 : n) + 1);
}

std::uint16_t default_rounds(std::uint32_t n) noexcept {
    return static_cast<std::uint16_t>(2 * util::ceil_log2(n < 2 ? 2 : n) + 8);
}

}  // namespace plurality::leader
