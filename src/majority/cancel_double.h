// Cancellation/doubling exact majority — the state-economical member of the
// [20]-style protocol family (see docs/ARCHITECTURE.md's substitution notes).
//
// Each agent holds a sign in {+, −, 0} and a level i in [0, level_cap]; a
// signed agent at level i represents a token of value sign · 2^(−i), so the
// signed sum  Σ sign·2^(−level)  is invariant and equals the initial bias:
//
//   cancel:   (+, i) meets (−, i)        ->  both become 0
//   cancel±1: (s, i) meets (−s, i+1)     ->  (s, i+1) and 0
//             (the exact identity 2^(−i) − 2^(−i−1) = 2^(−i−1))
//   merge:    (s, i) meets (s, i), i>0   ->  (s, i−1) and 0
//             (the exact identity 2^(−i) + 2^(−i) = 2^(−i+1))
//   split:    (s, i) meets (0, ·), i<cap ->  both become (s, i+1)
//
// Every rule preserves the signed token sum exactly, so the protocol is
// exact at any bias.  Cancellation happens where opposite levels meet; the
// merge rule is what keeps the *unsynchronized* protocol live: splits alone
// exhaust the blank agents and fragment one side to the level cap, stranding
// opposite tokens at distant levels forever.  Merging re-concentrates mass
// toward shallow levels and regenerates blanks, so opposing masses keep
// flowing toward each other until the minority is annihilated.  With
// level_cap ≈ log2(n) + O(1) the protocol decides exact majority w.h.p. in
// polylog(n) parallel time using O(log n) states — the opposite trade-off to
// `averaging_majority` (O(log n) time, Θ(n) states).  Experiment E8 measures
// both sides of the trade.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/census_store.h"

namespace plurality::majority {

struct cancel_double_agent {
    std::int8_t sign = 0;  ///< -1, 0, +1
    std::uint8_t level = 0;
};

class cancel_double_protocol {
public:
    using agent_t = cancel_double_agent;

    explicit cancel_double_protocol(std::uint8_t level_cap) : level_cap_(level_cap) {}

    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R&) const noexcept {
        if (initiator.sign != 0 && responder.sign != 0) {
            if (initiator.sign == -responder.sign) {
                if (initiator.level == responder.level) {
                    initiator.sign = 0;
                    responder.sign = 0;
                    initiator.level = 0;
                    responder.level = 0;
                } else if (initiator.level + 1 == responder.level) {
                    // (s, i) and (−s, i+1): the shallower token survives one
                    // level deeper, the deeper token is fully consumed.
                    initiator.level = responder.level;
                    responder.sign = 0;
                    responder.level = 0;
                } else if (responder.level + 1 == initiator.level) {
                    responder.level = initiator.level;
                    initiator.sign = 0;
                    initiator.level = 0;
                }
            } else if (initiator.level == responder.level && initiator.level > 0) {
                // Same sign, same level: merge one level up, free the other.
                --initiator.level;
                responder.sign = 0;
                responder.level = 0;
            }
            return;
        }
        if (initiator.sign != 0 && responder.sign == 0 && initiator.level < level_cap_) {
            const std::uint8_t next = initiator.level + 1;
            responder.sign = initiator.sign;
            responder.level = next;
            initiator.level = next;
        }
    }

    [[nodiscard]] std::uint8_t level_cap() const noexcept { return level_cap_; }

private:
    std::uint8_t level_cap_;
};

/// Recommended level cap for n participants: ⌈log2 n⌉ + 2.
[[nodiscard]] std::uint8_t default_level_cap(std::uint32_t n) noexcept;

/// The invariant Σ sign·2^(level_cap − level), i.e. the bias scaled by
/// 2^level_cap (kept in integers to stay exact).
[[nodiscard]] std::int64_t scaled_token_sum(std::span<const cancel_double_agent> agents,
                                            std::uint8_t level_cap) noexcept;

/// +1 / -1 when every signed agent carries that sign (the protocol's output
/// once opposing tokens are extinct); 0 while both signs coexist or no
/// signed agent is left.
[[nodiscard]] int decided_sign(std::span<const cancel_double_agent> agents) noexcept;

/// The initial census: `plus` positive tokens, `minus` negative tokens and
/// `blank` unsigned agents, all at level 0.
[[nodiscard]] std::vector<sim::census_entry<cancel_double_agent>> cancel_double_census(
    std::uint64_t plus, std::uint64_t minus, std::uint64_t blank);

}  // namespace plurality::majority
