#include "majority/stable_four_state.h"

#include "sim/delta_outcomes.h"
#include "sim/rng.h"

namespace plurality::majority {

template <class R>
void stable_four_state_protocol::interact(agent_t& initiator, agent_t& responder,
                                          R&) const noexcept {
    using enum four_state;
    const four_state a = initiator.state;
    const four_state b = responder.state;

    // Cancellation: opposing strong tokens annihilate into weak followers.
    if (a == strong_plus && b == strong_minus) {
        initiator.state = weak_plus;
        responder.state = weak_minus;
        return;
    }
    if (a == strong_minus && b == strong_plus) {
        initiator.state = weak_minus;
        responder.state = weak_plus;
        return;
    }
    // A strong agent flips an opposing weak agent's remembered sign.
    if (a == strong_plus && b == weak_minus) {
        responder.state = weak_plus;
        return;
    }
    if (a == strong_minus && b == weak_plus) {
        responder.state = weak_minus;
        return;
    }
    if (b == strong_plus && a == weak_minus) {
        initiator.state = weak_plus;
        return;
    }
    if (b == strong_minus && a == weak_plus) {
        initiator.state = weak_minus;
        return;
    }
}

// The two generators δ ever runs against: the real stream and the
// enumerating replay (sim/delta_outcomes.h).
template void stable_four_state_protocol::interact<sim::rng>(agent_t&, agent_t&,
                                                             sim::rng&) const noexcept;
template void stable_four_state_protocol::interact<sim::delta_replay>(
    agent_t&, agent_t&, sim::delta_replay&) const noexcept;

int output_sign(const four_state_agent& agent) noexcept {
    using enum four_state;
    switch (agent.state) {
        case strong_plus:
        case weak_plus:
            return 1;
        case strong_minus:
        case weak_minus:
            return -1;
    }
    return 0;
}

std::vector<sim::census_entry<four_state_agent>> four_state_census(std::uint64_t plus,
                                                                   std::uint64_t minus,
                                                                   std::uint64_t blank) {
    return {{{four_state::strong_plus}, plus + blank}, {{four_state::strong_minus}, minus}};
}

}  // namespace plurality::majority
