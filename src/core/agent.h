// Per-agent state for the tournament protocols — the concrete realization of
// the paper's Figure 1 state space.
//
// The struct is the *superset* S of all role-specific variables; as §3.4
// explains, each role only keeps track of its own slice.
// `plurality_protocol::live_slice` names each role's slice, and δ resets
// every field outside it, so the agent's bytes — the census backend's
// state identity — are the paper's state.  Simulation-side bookkeeping
// that the paper models as "constantly many bits" (do-once flags, first-
// interaction-in-phase detection) is explicit here.
#pragma once

#include <cstdint>

namespace plurality::core {

/// The four roles of the initialization phase (§3).
enum class agent_role : std::uint8_t { collector = 0, clock = 1, tracker = 2, player = 3 };

/// playeropinion: U (undecided), A (defender side), B (challenger side).
enum class player_side : std::uint8_t { undecided = 0, defender_side = 1, challenger_side = 2 };

/// Lifecycle stages.  `init` covers Algorithm 3 (ordered/unordered) or
/// Algorithm 5 (improved); `electing` is the Appendix-B leader election
/// (skipped by the ordered algorithm); `tournaments` runs Algorithm 4.
enum class lifecycle_stage : std::uint8_t { init = 0, electing = 1, tournaments = 2 };

/// What a tracker's announcement (unordered modes) refers to.
enum class announcement_kind : std::uint8_t { none = 0, defender = 1, challenger = 2 };

// Fields are declared in descending size order (8 → 4 → 2 → 1 bytes) so the
// struct carries no interior padding and the whole agent occupies exactly one
// 64-byte cache line — the hot loop touches two random agents per
// interaction, so each interaction costs exactly two cache lines.  The
// logical role-grouping of §3.4 is kept in the comments; `live_slice`
// remains the authority on which role owns which slice.
struct alignas(64) core_agent {
    // -- 8-byte -----------------------------------------------------------------
    std::int64_t maj_load = 0;  ///< player: averaging-majority state (S_maj)

    // -- 4-byte -----------------------------------------------------------------
    std::uint32_t opinion = 0;  ///< collector: 1..k (0 once the opinion was given up)
    std::uint32_t count = 0;    ///< clock: init counting, then the leaderless clock counter
    std::uint32_t tcnt = 0;     ///< tracker (ordered): tournament counter 1..k+1
    std::uint32_t cand_opinion = 0;  ///< tracker: sampled not-yet-participating opinion
    std::uint32_t ann_opinion = 0;   ///< tracker: opinion announced by the leader
    std::uint32_t leader_cycle = 0;  ///< tracker: leader's own tournament-cycle counter
    std::uint32_t junta_p = 0;       ///< pruning: junta-driven phase-clock counter

    // -- 2-byte -----------------------------------------------------------------
    std::uint16_t le_rounds = 0;   ///< electing stage (every role): election round counter
    std::int16_t prune_phase = 0;  ///< pruning: starts at -c; 0 triggers the tournaments

    // -- 1-byte -----------------------------------------------------------------
    // shared variables (every role):
    agent_role role = agent_role::collector;
    lifecycle_stage stage = lifecycle_stage::init;
    std::uint8_t phase = 0;       ///< tournament phase in [0, phase_modulus)
    std::uint8_t once_flags = 0;  ///< per-phase do-once bits (Algorithm 4)
    bool ever_initiated = false;  ///< Algorithm 3 line 1
    bool winner = false;          ///< final-broadcast bit (§3.4 aftermath)
    // collector variables:
    std::uint8_t tokens = 0;
    bool defender = false;
    bool challenger = false;
    bool participated = false;  ///< opinion has been in a tournament (Appendix B)
    std::int8_t load = 0;       ///< ℓ in [-token_cap, token_cap]
    // tracker variables — leader election (unordered/improved):
    bool candidate = false;
    bool coin = false;
    bool saw_one = false;
    bool is_leader = false;
    bool finished = false;  ///< leader found no further challenger
    // tracker variables — challenger selection (unordered/improved):
    announcement_kind ann_kind = announcement_kind::none;
    bool visited_select = false;  ///< leader passed through the select phase
    // player variables:
    player_side po = player_side::undecided;  ///< playeropinion
    // pruning variables (ImprovedAlgorithm, Algorithm 5):
    std::uint8_t junta_level = 0;
    bool junta_active = true;
    bool junta_member = false;
    // Appendix C (large k):
    bool counting = false;          ///< counting agent (formed by a 1+1 token merge)
    bool met_same_opinion = false;  ///< collector ever met its own opinion
};

// The hot-path cost model above (two cache lines per interaction) only holds
// while the agent stays within one line; growing past 64 bytes is a
// measurable regression, not a style issue, so it fails the build.  The
// alignas keeps vector elements line-aligned — without it 64 bytes at 8-byte
// alignment would still straddle two lines for most allocation bases.
static_assert(sizeof(core_agent) == 64, "core_agent must stay within one cache line");
static_assert(alignof(core_agent) == 64, "core_agent must be cache-line aligned");

/// Do-once bits used within the conclusion phase (Algorithm 4, lines 17-21).
inline constexpr std::uint8_t once_saw_challenger_win = 1u << 0;
inline constexpr std::uint8_t once_saw_defender_win = 1u << 1;

}  // namespace plurality::core
