#include "core/plurality_protocol.h"

#include <algorithm>
#include <cmath>

#include "clocks/junta.h"
#include "clocks/junta_clock.h"
#include "clocks/leaderless_clock.h"
#include "loadbalance/load_balancer.h"
#include "util/math.h"

namespace plurality::core {

namespace {

/// Phase-entry decision of a player after the match (Appendix A): the
/// balanced load separates defender win / challenger win / tie by a
/// constant threshold.
[[nodiscard]] player_side decide_player(std::int64_t load, std::int64_t thr) noexcept {
    if (load >= thr) return player_side::defender_side;
    if (load <= -thr) return player_side::challenger_side;
    return player_side::undecided;
}

// An agent's kind is its role (agent_role's values), or the tracker's + 2
// for a crowned tracker (kind_of).
constexpr std::uint32_t kind_clock = static_cast<std::uint32_t>(agent_role::clock);
constexpr std::uint32_t kinds = 5;

// Sets of kinds, bit `kind`: every rule but the aftermath's reads a crowned
// tracker as a tracker.
constexpr std::uint32_t collectors = 1u << static_cast<std::uint32_t>(agent_role::collector);
constexpr std::uint32_t clock_kinds = 1u << kind_clock;
constexpr std::uint32_t uncrowned = 1u << static_cast<std::uint32_t>(agent_role::tracker);
constexpr std::uint32_t crowned = uncrowned << 2;
constexpr std::uint32_t trackers = uncrowned | crowned;
constexpr std::uint32_t players = 1u << static_cast<std::uint32_t>(agent_role::player);
constexpr std::uint32_t every_kind = (1u << kinds) - 1;

// Activity classes: the wildcard class, the winners, then one class per
// (stage, phase, kind) of the tournaments stage and, after them, of the
// electing stage, which ordered mode never enters and so does not declare.
constexpr std::uint32_t wildcard_class = 0;
constexpr std::uint32_t winner_class = 1;
constexpr std::uint32_t first_staged_class = 2;

/// The rule-table bits of every (initiator kind, responder kind) pair with
/// the initiator in one set and the responder in the other.
constexpr std::uint32_t pairs_of(std::uint32_t initiators, std::uint32_t responders) noexcept {
    std::uint32_t bits = 0;
    for (std::uint32_t kind = 0; kind < kinds; ++kind)
        if (initiators >> kind & 1u) bits |= responders << (kinds * kind);
    return bits;
}

/// Both orders.
constexpr std::uint32_t either_order(std::uint32_t a, std::uint32_t b) noexcept {
    return pairs_of(a, b) | pairs_of(b, a);
}

}  // namespace

plurality_protocol::plurality_protocol(protocol_config cfg) : cfg_(cfg) {
    static_assert(std::max({protocol_config{.mode = algorithm_mode::ordered}.phase_modulus(),
                            protocol_config{.mode = algorithm_mode::unordered}.phase_modulus(),
                            protocol_config{.mode = algorithm_mode::improved}.phase_modulus()}) ==
                      max_phases,
                  "the rule table has one column per phase of the longest cycle");
    // Tournaments, every phase: the leaderless tick, and the aftermath — a
    // crowned tracker crowns defender collectors (either order) and, in the
    // unordered modes, spreads `finished` to the trackers it meets.
    std::uint32_t every_phase =
        pairs_of(clock_kinds, clock_kinds) | either_order(crowned, collectors);
    if (cfg_.mode != algorithm_mode::ordered) every_phase |= either_order(crowned, uncrowned);

    rules_[static_cast<std::size_t>(lifecycle_stage::init)].fill(pairs_of(every_kind, every_kind));
    for (std::uint32_t phase = 0; phase < cfg_.phase_modulus(); ++phase) {
        // The working phases of tournament_interact.
        const auto p = static_cast<std::uint8_t>(phase);
        std::uint32_t working = 0;
        if (is_select_phase(p)) {
            working = either_order(trackers, collectors) | pairs_of(trackers, trackers);
        } else if (p == cfg_.setup_phase()) {
            working = either_order(collectors, every_kind);  // a collector's load resets
        } else if (p == cfg_.cancel_phase()) {
            working = pairs_of(collectors, collectors);
        } else if (p == cfg_.lineup_phase() || p == cfg_.conclude_phase()) {
            working = pairs_of(collectors, players);
        } else if (p == cfg_.match_phase()) {
            working = pairs_of(players, players);
        }
        // Election: the leaderless tick and electing_interact.
        rules_[static_cast<std::size_t>(lifecycle_stage::electing)][phase] =
            pairs_of(clock_kinds, clock_kinds) | pairs_of(trackers, trackers);
        rules_[static_cast<std::size_t>(lifecycle_stage::tournaments)][phase] =
            working | every_phase;
    }
}

std::uint32_t plurality_protocol::kind_of(const agent_t& agent) const noexcept {
    // Branch-free: δ's early return reads two kinds per interaction.
    const bool crown = cfg_.mode == algorithm_mode::ordered ? agent.tcnt == cfg_.k + 1
                                                            : agent.finished;
    return static_cast<std::uint32_t>(agent.role) +
           2 * static_cast<std::uint32_t>((agent.role == agent_role::tracker) & crown);
}

// ---------------------------------------------------------------------------
// Population construction
// ---------------------------------------------------------------------------

std::vector<sim::census_entry<core_agent>> plurality_protocol::initial_census(
    const protocol_config& cfg, const workload::opinion_distribution& dist) {
    std::vector<sim::census_entry<core_agent>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion) {
        const std::uint32_t support = dist.support_of(opinion);
        if (support == 0) continue;
        core_agent a;
        a.opinion = opinion;
        a.tokens = 1;
        a.role = agent_role::collector;
        a.stage = lifecycle_stage::init;
        if (cfg.mode == algorithm_mode::improved) {
            a.prune_phase = -static_cast<std::int16_t>(cfg.prune_hours);
        }
        entries.push_back({a, support});
    }
    return entries;
}

std::vector<core_agent> plurality_protocol::make_population(
    const protocol_config& cfg, const workload::opinion_distribution& dist, sim::rng& gen) {
    return sim::expand_census(initial_census(cfg, dist), gen);
}

// ---------------------------------------------------------------------------
// Stage and phase bookkeeping
// ---------------------------------------------------------------------------

// Out of line on purpose: δ calls it only where a role, stage or winner bit
// changes, and inlined into δ's body it slowed every census step.
[[gnu::noinline]] core_agent plurality_protocol::live_slice(
    const core_agent& agent) const noexcept {
    core_agent slice;  // every field at its default
    slice.role = agent.role;
    slice.stage = agent.stage;
    slice.phase = agent.phase;
    slice.once_flags = agent.once_flags;
    slice.ever_initiated = agent.ever_initiated;
    slice.winner = agent.winner;
    if (agent.winner) {  // it only converts others, and the readouts read these
        slice.opinion = agent.opinion;
        slice.tokens = agent.tokens;
        slice.is_leader = agent.is_leader;
        return slice;
    }
    // Every agent in the election counts its rounds.
    if (agent.stage == lifecycle_stage::electing) slice.le_rounds = agent.le_rounds;
    const bool init = agent.stage == lifecycle_stage::init;
    switch (agent.role) {
        case agent_role::collector:
            if (agent.counting) {  // Appendix C: it only counts its initiations
                slice.counting = true;
                slice.count = agent.count;
                break;
            }
            slice.opinion = agent.opinion;
            slice.tokens = agent.tokens;
            slice.defender = agent.defender;
            slice.challenger = agent.challenger;
            slice.load = agent.load;
            // Only the unordered modes' challenger selection asks.
            if (cfg_.mode != algorithm_mode::ordered) slice.participated = agent.participated;
            if (init && cfg_.large_k) slice.met_same_opinion = agent.met_same_opinion;
            if (init && cfg_.mode == algorithm_mode::improved) {
                slice.junta_level = agent.junta_level;
                slice.junta_active = agent.junta_active;
                slice.junta_member = agent.junta_member;
                slice.junta_p = agent.junta_p;
                slice.prune_phase = agent.prune_phase;
            }
            break;
        case agent_role::clock:
            slice.count = agent.count;
            break;
        case agent_role::tracker:
            if (cfg_.mode == algorithm_mode::ordered) {
                slice.tcnt = agent.tcnt;
            } else if (agent.stage == lifecycle_stage::tournaments) {
                slice.is_leader = agent.is_leader;
                slice.finished = agent.finished;
                slice.visited_select = agent.visited_select;
                slice.ann_kind = agent.ann_kind;
                slice.cand_opinion = agent.cand_opinion;
                slice.ann_opinion = agent.ann_opinion;
                slice.leader_cycle = agent.leader_cycle;
            } else {  // the election's variables, set when the role is taken
                slice.candidate = agent.candidate;
                slice.coin = agent.coin;
                slice.saw_one = agent.saw_one;
            }
            break;
        case agent_role::player:
            slice.po = agent.po;
            slice.maj_load = agent.maj_load;
            break;
    }
    return slice;
}

template <class R>
void plurality_protocol::assign_random_role(agent_t& agent, R& gen) const {
    switch (gen.next_below(3)) {
        case 0:
            agent.role = agent_role::clock;
            agent.count = 0;  // a counting agent's count does not carry over
            break;
        case 1:
            agent.role = agent_role::tracker;
            agent.tcnt = 1;
            agent.candidate = true;
            break;
        default:  // undecided, with no load: its fields' defaults
            agent.role = agent_role::player;
            break;
    }
    agent = live_slice(agent);  // the collector's variables go with its role
}

bool plurality_protocol::is_select_phase(std::uint8_t phase) const noexcept {
    return cfg_.mode != algorithm_mode::ordered && phase == cfg_.select_phase();
}

template <class R>
void plurality_protocol::enter_stage(agent_t& agent, lifecycle_stage target, R& gen) const {
    while (agent.stage < target) {
        if (agent.stage == lifecycle_stage::init) {
            // Leaving initialization.
            // Appendix C: counting agents take a random role now.  In the
            // k > n/2 regime (where singleton opinions are unavoidable and
            // the role pools would otherwise starve), single-token
            // collectors that never met their own opinion are recycled too —
            // the paper introduces that rule only for this case, since for
            // moderate k it would shave tokens off legitimate opinions.
            if (cfg_.large_k && cfg_.mode != algorithm_mode::improved &&
                agent.role == agent_role::collector &&
                (agent.counting ||
                 (cfg_.k > cfg_.n / 2 && agent.tokens <= 1 && !agent.met_same_opinion))) {
                assign_random_role(agent, gen);
            }
            if (cfg_.mode == algorithm_mode::improved) {
                // Pruning decision (Algorithm 5, lines 8-11): agents whose
                // clock never ticked, or who carry no tokens, switch to a
                // random non-collector role.
                const auto never_ticked =
                    agent.prune_phase == -static_cast<std::int16_t>(cfg_.prune_hours);
                if (agent.role == agent_role::collector &&
                    (agent.tokens == 0 || never_ticked)) {
                    assign_random_role(agent, gen);
                }
            }
            agent.stage = cfg_.mode == algorithm_mode::ordered ? lifecycle_stage::tournaments
                                                               : lifecycle_stage::electing;
            if (agent.role == agent_role::clock) agent.count = 0;
        } else if (agent.stage == lifecycle_stage::electing) {
            // Election over: surviving candidates that completed all rounds
            // become leaders (stragglers pulled across the boundary by the
            // stage broadcast missed their last round and may not claim
            // leadership).
            if (agent.role == agent_role::tracker) {
                if (agent.candidate && !agent.coin && agent.saw_one) agent.candidate = false;
                agent.is_leader = agent.candidate && agent.le_rounds >= cfg_.leader_rounds;
            }
            agent.stage = lifecycle_stage::tournaments;
        }
        // The stage's own variables go: the pruning stage's junta state, the
        // election's coins and rounds.
        agent = live_slice(agent);
        agent.phase = 0;
        on_phase_entry(agent, gen);
        if (agent.stage >= target) break;
    }
}

void plurality_protocol::advance_phase(agent_t& agent) const {
    agent.phase = static_cast<std::uint8_t>((agent.phase + 1) % cfg_.phase_modulus());
}

/// Fires the actions an agent performs when it *enters* its current phase
/// (the paper's "first interaction in this phase" / "do once" machinery,
/// realized edge-triggered at the moment the agent learns the new phase).
template <class R>
void plurality_protocol::on_phase_entry(agent_t& agent, R& gen) const {
    agent.once_flags = 0;

    if (agent.stage == lifecycle_stage::electing) {
        // One phase = one leader-election round (Appendix B / [23]).
        if (agent.le_rounds >= cfg_.leader_rounds && agent.phase == 0) {
            enter_stage(agent, lifecycle_stage::tournaments, gen);
            return;
        }
        if (agent.le_rounds < cfg_.leader_rounds) ++agent.le_rounds;
        if (agent.role == agent_role::tracker) {
            if (agent.candidate && !agent.coin && agent.saw_one) agent.candidate = false;
            agent.coin = agent.candidate && gen.next_bool();
            agent.saw_one = agent.coin;
        }
        return;
    }

    if (agent.stage != lifecycle_stage::tournaments) return;

    // -- cycle boundary -----------------------------------------------------
    if (agent.phase == 0) {
        if (cfg_.mode == algorithm_mode::ordered) {
            if (agent.role == agent_role::tracker) {
                // Algorithm 2: increment the tournament counter, saturating
                // at k+1 (the aftermath trigger value, §3.4).
                agent.tcnt = std::min<std::uint32_t>(agent.tcnt + 1, cfg_.k + 1);
            }
        } else if (agent.role == agent_role::tracker) {
            // Select phase begins: forget last cycle's sampling state.
            agent.cand_opinion = 0;
            agent.ann_opinion = 0;
            agent.ann_kind = announcement_kind::none;
            if (agent.is_leader) {
                ++agent.leader_cycle;
                agent.visited_select = true;
            }
        }
    }

    // -- leaving the select phase: leader checks for termination -------------
    if (cfg_.mode != algorithm_mode::ordered && agent.phase == 1 && agent.is_leader) {
        if (agent.visited_select && agent.ann_opinion == 0) agent.finished = true;
        agent.visited_select = false;
    }

    // -- players reset before the new tournament and decide after the match --
    if (agent.role == agent_role::player) {
        if (agent.phase == cfg_.setup_phase()) {
            agent.po = player_side::undecided;
            agent.maj_load = 0;
        } else if (agent.phase == cfg_.conclude_phase()) {
            agent.po = decide_player(agent.maj_load, cfg_.majority_threshold);
        }
    }
}

template <class R>
void plurality_protocol::sync_stage_and_phase(agent_t& u, agent_t& v, R& gen) const {
    // Stage broadcast: the later stage wins.  Clock agents only accept the
    // broadcast out of the initialization stage (where their counter is
    // reset); the electing->tournaments transition they perform themselves
    // at their own counter wrap — being dragged across it mid-revolution
    // would make them wrap again right away and broadcast the next phase
    // early, collapsing the first select phase.
    if (u.stage != v.stage) {
        agent_t& behind_agent = u.stage < v.stage ? u : v;
        const agent_t& ahead_agent = u.stage < v.stage ? v : u;
        if (behind_agent.role != agent_role::clock ||
            behind_agent.stage == lifecycle_stage::init) {
            enter_stage(behind_agent, ahead_agent.stage, gen);
        }
    }
    if (u.stage == lifecycle_stage::init || u.stage != v.stage) return;

    // Phase broadcast (Algorithm 4, lines 22-23): the circularly-behind
    // agent catches up, firing entry actions for each phase it steps
    // through (skew is at most a phase or two w.h.p.).  Clock agents are
    // exempt: their phase follows their own counter wraps — the leaderless
    // tick rule already synchronizes them, and accepting the broadcast as
    // well would advance them twice per revolution.
    const std::uint32_t modulus = cfg_.phase_modulus();
    if (u.phase == v.phase) return;
    agent_t* behind = nullptr;
    agent_t* ahead = nullptr;
    if (clocks::circular_behind(u.phase, v.phase, modulus)) {
        behind = &u;
        ahead = &v;
    } else {
        behind = &v;
        ahead = &u;
    }
    if (behind->role == agent_role::clock) return;
    const lifecycle_stage stage_before = behind->stage;
    while (behind->phase != ahead->phase) {
        advance_phase(*behind);
        on_phase_entry(*behind, gen);
        if (behind->stage != stage_before) break;  // entry action changed stage
    }
}

// ---------------------------------------------------------------------------
// Initialization stage
// ---------------------------------------------------------------------------

template <class R>
void plurality_protocol::init_interact(agent_t& u, agent_t& v, R& gen) const {
    const bool collector_pair = u.role == agent_role::collector && !u.counting &&
                                v.role == agent_role::collector && !v.counting;
    if (collector_pair && u.opinion != 0 && u.opinion == v.opinion) {
        if (cfg_.large_k) {  // only the Appendix C recycling rule reads it
            u.met_same_opinion = true;
            v.met_same_opinion = true;
        }

        // Appendix C: two single-token collectors of the same opinion merge
        // into one two-token collector and one *counting agent*.
        if (cfg_.large_k && u.tokens == 1 && v.tokens == 1) {
            v.tokens = 2;
            u.counting = true;
            u = live_slice(u);  // its token and opinion go; its count starts at 0
            return;
        }

        // Token collection (Algorithm 3, lines 3-6): the responder
        // accumulates, the initiator gives up its tokens and takes a random
        // role.
        if (u.tokens + v.tokens <= cfg_.token_cap) {
            v.tokens = static_cast<std::uint8_t>(u.tokens + v.tokens);
            u.tokens = 0;
            assign_random_role(u, gen);
            return;
        }
    }

    const auto log_n = static_cast<double>(util::ceil_log2(cfg_.n));

    // Appendix C: counting agents count their own initiations and trigger
    // the tournament start when the clock path is too slow to form.
    if (u.counting) {
        ++u.count;
        const auto target =
            static_cast<std::uint32_t>(std::lround(cfg_.counting_factor * log_n));
        if (u.count >= target) {
            enter_stage(u,
                        cfg_.mode == algorithm_mode::ordered ? lifecycle_stage::tournaments
                                                             : lifecycle_stage::electing,
                        gen);
        }
        return;
    }

    // Clock counting (Algorithm 1, lines 1-4).  Counting agents are no
    // longer collectors from the clock's perspective; in the Appendix C
    // regime the decrement is slowed to 1/c per collector encounter.
    if (u.role == agent_role::clock) {
        const bool responder_collects = v.role == agent_role::collector && !v.counting;
        if (!responder_collects) {
            ++u.count;
        } else if (u.count > 0 && (cfg_.count_decrement_divisor <= 1 ||
                                   gen.next_below(cfg_.count_decrement_divisor) == 0)) {
            --u.count;
        }
        const auto threshold =
            static_cast<std::uint32_t>(std::lround(cfg_.init_count_factor * log_n));
        if (u.count >= threshold) {
            enter_stage(u,
                        cfg_.mode == algorithm_mode::ordered ? lifecycle_stage::tournaments
                                                             : lifecycle_stage::electing,
                        gen);
        }
    }
}

template <class R>
void plurality_protocol::init_interact_improved(agent_t& u, agent_t& v, R& gen) const {
    // Algorithm 5: everything here happens in *meaningful* interactions
    // (same opinion) only.
    if (u.opinion != v.opinion) return;

    // Junta election and junta-driven phase clock (lines 1-5).
    clocks::junta_state ju{u.junta_level, u.junta_active, u.junta_member};
    const clocks::junta_state jv{v.junta_level, v.junta_active, v.junta_member};
    clocks::junta_step(ju, jv, cfg_.junta_level_cap);
    u.junta_level = ju.level;
    u.junta_active = ju.active;
    u.junta_member = ju.member;

    clocks::junta_clock_state cu{u.junta_p};
    const clocks::junta_clock_state cv{v.junta_p};
    const std::uint32_t new_hours = clocks::junta_clock_step(
        cu, cv, u.junta_member, cfg_.junta_hour_length, cfg_.prune_hours + 1);
    u.junta_p = cu.p;
    if (new_hours > 0) {
        u.prune_phase = static_cast<std::int16_t>(
            std::min<std::int32_t>(0, u.prune_phase + static_cast<std::int32_t>(new_hours)));
    }

    // Token collection (lines 6-7): tokens merge but the donor keeps its
    // collector role until the pruning broadcast.
    if (u.tokens + v.tokens <= cfg_.token_cap) {
        v.tokens = static_cast<std::uint8_t>(u.tokens + v.tokens);
        u.tokens = 0;
    }

    // First clock to complete all its hours starts the tournaments
    // (lines 8-11); the stage broadcast in sync_stage_and_phase carries the
    // signal to everyone else.
    if (u.prune_phase >= 0) enter_stage(u, lifecycle_stage::electing, gen);
}

// ---------------------------------------------------------------------------
// Leader-election stage (Appendix B)
// ---------------------------------------------------------------------------

void plurality_protocol::electing_interact(agent_t& u, agent_t& v) const {
    if (u.role != agent_role::tracker || v.role != agent_role::tracker) return;
    if (u.phase != v.phase) return;  // stale round information must not leak

    const bool any = u.saw_one || v.saw_one;
    u.saw_one = any;
    v.saw_one = any;

    // Direct elimination: of two meeting candidates only the initiator
    // stays.  The survivor inherits the victim's coin so that "some
    // heads-flipping candidate survives the round" keeps holding.
    if (u.candidate && v.candidate) {
        v.candidate = false;
        u.coin = u.coin || v.coin;
    }
}

// ---------------------------------------------------------------------------
// Tournament stage (Algorithm 4 + Appendix B selection)
// ---------------------------------------------------------------------------

void plurality_protocol::select_pair(agent_t& a, agent_t& b) const {
    if (a.role != agent_role::tracker) return;

    // Sampling: observe a collector whose opinion has not competed yet.
    if (b.role == agent_role::collector && !b.participated && b.tokens > 0 && b.opinion != 0) {
        if (a.is_leader) {
            if (a.ann_opinion == 0) {
                a.ann_opinion = b.opinion;
                a.ann_kind = a.leader_cycle <= 1 ? announcement_kind::defender
                                                 : announcement_kind::challenger;
            }
        } else {
            a.cand_opinion = b.opinion;
        }
        return;
    }

    if (b.role != agent_role::tracker) return;

    // The leader may adopt a candidate amplified by another tracker.
    if (a.is_leader && a.ann_opinion == 0 && b.cand_opinion != 0) {
        a.ann_opinion = b.cand_opinion;
        a.ann_kind =
            a.leader_cycle <= 1 ? announcement_kind::defender : announcement_kind::challenger;
        return;
    }

    // Announcement spreading among trackers.
    if (a.ann_opinion == 0 && b.ann_opinion != 0) {
        a.ann_opinion = b.ann_opinion;
        a.ann_kind = b.ann_kind;
    }
}

void plurality_protocol::setup_pair(agent_t& a, agent_t& b) const {
    if (a.role != agent_role::collector) return;

    if (cfg_.mode == algorithm_mode::ordered) {
        // Algorithm 4, lines 2-3: the tracker's tournament counter names the
        // challenger opinion.
        if (b.role == agent_role::tracker && a.opinion != 0 && a.opinion == b.tcnt) {
            a.challenger = true;
        }
    } else {
        // Appendix B: collectors learn the announced opinion from trackers.
        if (b.role == agent_role::tracker && b.ann_opinion != 0 && b.ann_opinion == a.opinion) {
            if (b.ann_kind == announcement_kind::defender) {
                a.defender = true;
            } else {
                a.challenger = true;
            }
            a.participated = true;
        }
    }

    // Algorithm 4, lines 4-5: (re)initialize the load; idempotent within the
    // phase, and re-running it after a late challenger marking fixes ℓ up.
    if (a.defender) {
        a.load = static_cast<std::int8_t>(a.tokens);
    } else if (a.challenger) {
        a.load = -static_cast<std::int8_t>(a.tokens);
    } else {
        a.load = 0;
    }
}

void plurality_protocol::lineup_pair(agent_t& initiator, agent_t& responder) const {
    // Algorithm 4, lines 10-12: a collector hands one unit of load to an
    // undecided player.
    if (initiator.role != agent_role::collector || responder.role != agent_role::player) return;
    if (responder.po != player_side::undecided || initiator.load == 0) return;

    if (initiator.load > 0) {
        responder.po = player_side::defender_side;
        responder.maj_load = cfg_.majority_amplification;
        --initiator.load;
    } else {
        responder.po = player_side::challenger_side;
        responder.maj_load = -cfg_.majority_amplification;
        ++initiator.load;
    }
}

void plurality_protocol::conclude_pair(agent_t& collector, agent_t& player) const {
    // Algorithm 4, lines 17-21: collectors read the match outcome off the
    // players, each branch at most once per phase.
    if (player.po == player_side::challenger_side) {
        if (!(collector.once_flags & once_saw_challenger_win)) {
            collector.once_flags |= once_saw_challenger_win;
            collector.defender = collector.challenger;
            collector.challenger = false;
        }
    } else {  // A or U
        if (!(collector.once_flags & once_saw_defender_win)) {
            collector.once_flags |= once_saw_defender_win;
            collector.challenger = false;
        }
    }
}

void plurality_protocol::tournament_interact(agent_t& u, agent_t& v) const {
    const std::uint8_t p = u.phase;

    if (is_select_phase(p)) {
        select_pair(u, v);
        select_pair(v, u);
    } else if (p == cfg_.setup_phase()) {
        setup_pair(u, v);
        setup_pair(v, u);
    } else if (p == cfg_.cancel_phase()) {
        // Algorithm 4, lines 7-8: load balancing among all collectors.
        if (u.role == agent_role::collector && v.role == agent_role::collector) {
            std::int64_t lu = u.load;
            std::int64_t lv = v.load;
            loadbalance::average_pair(lu, lv);
            u.load = static_cast<std::int8_t>(lu);
            v.load = static_cast<std::int8_t>(lv);
        }
    } else if (p == cfg_.lineup_phase()) {
        lineup_pair(u, v);
    } else if (p == cfg_.match_phase()) {
        // Algorithm 4, lines 14-15: the exact-majority substrate among the
        // players (Appendix A; averaging substitute for [20]).
        if (u.role == agent_role::player && v.role == agent_role::player) {
            loadbalance::average_pair(u.maj_load, v.maj_load);
        }
    } else if (p == cfg_.conclude_phase()) {
        if (u.role == agent_role::collector && v.role == agent_role::player) {
            conclude_pair(u, v);
        }
    }

    // Aftermath (§3.4 / Appendix B): detect overall completion and crown the
    // final defender.
    if (cfg_.mode == algorithm_mode::ordered) {
        const auto crown = [this](const agent_t& tracker, agent_t& collector) {
            if (tracker.role == agent_role::tracker && tracker.tcnt == cfg_.k + 1 &&
                collector.role == agent_role::collector && collector.defender) {
                collector.winner = true;
                collector = live_slice(collector);
            }
        };
        crown(u, v);
        crown(v, u);
    } else {
        if (u.role == agent_role::tracker && v.role == agent_role::tracker) {
            const bool done = u.finished || v.finished;
            u.finished = done;
            v.finished = done;
        }
        const auto crown = [this](const agent_t& tracker, agent_t& collector) {
            if (tracker.role == agent_role::tracker && tracker.finished &&
                collector.role == agent_role::collector && collector.defender) {
                collector.winner = true;
                collector = live_slice(collector);
            }
        };
        crown(u, v);
        crown(v, u);
    }
}

// ---------------------------------------------------------------------------
// Activity classes (the census backend's skip hook)
// ---------------------------------------------------------------------------

std::uint32_t plurality_protocol::activity_classes() const noexcept {
    const std::uint32_t stages = cfg_.mode == algorithm_mode::ordered ? 1 : 2;
    return first_staged_class + stages * kinds * cfg_.phase_modulus();
}

std::uint32_t plurality_protocol::activity_class(const agent_t& agent) const noexcept {
    if (!agent.ever_initiated) return wildcard_class;
    if (agent.winner) return winner_class;
    if (agent.stage == lifecycle_stage::init) return wildcard_class;
    const std::uint32_t stage = agent.stage == lifecycle_stage::tournaments ? 0 : 1;
    return first_staged_class + (stage * cfg_.phase_modulus() + agent.phase) * kinds +
           kind_of(agent);
}

bool plurality_protocol::may_act(std::uint32_t initiator_class,
                                 std::uint32_t responder_class) const noexcept {
    // In the init stage, or before a first initiation, anything may happen.
    // Winners convert every non-winner and leave each other be.
    if (initiator_class == wildcard_class || responder_class == wildcard_class) return true;
    if (initiator_class == winner_class || responder_class == winner_class)
        return initiator_class != responder_class;

    // Decode (stage, phase, kind); `at` counts stage·modulus + phase, stage 0
    // being the tournaments and stage 1 the election.
    const std::uint32_t modulus = cfg_.phase_modulus();
    const std::uint32_t u_at = (initiator_class - first_staged_class) / kinds;
    const std::uint32_t u_kind = (initiator_class - first_staged_class) % kinds;
    const std::uint32_t v_at = (responder_class - first_staged_class) / kinds;
    const std::uint32_t v_kind = (responder_class - first_staged_class) % kinds;
    // Across stages the stage broadcast, or a clock tick, may act.
    if (u_at / modulus != v_at / modulus) return true;
    if (u_at != v_at) {
        // Two clocks always tick (leaderless_tick moves one counter).
        // Otherwise the circularly-behind agent catches up unless it is a
        // clock, and skewed phases do no joint work.
        if (u_kind == kind_clock && v_kind == kind_clock) return true;
        return clocks::circular_behind(u_at % modulus, v_at % modulus, modulus)
                   ? u_kind != kind_clock
                   : v_kind != kind_clock;
    }
    // One stage and phase: the rule-table row δ's early return reads.
    const lifecycle_stage stage =
        u_at < modulus ? lifecycle_stage::tournaments : lifecycle_stage::electing;
    return rules_[static_cast<std::size_t>(stage)][u_at % modulus] >> (kinds * u_kind + v_kind) &
           1u;
}

// ---------------------------------------------------------------------------
// Top-level transition function
// ---------------------------------------------------------------------------

template <class R>
void plurality_protocol::interact(agent_t& u, agent_t& v, R& gen) const {
    // Rule table: two initiated non-winners in one stage and phase whose
    // kind pair no rule of that (stage, phase) touches stay as they are —
    // the stage and phase broadcasts have nothing to carry and every rule
    // below is guarded by the kinds.  The init row holds every pair.
    if (u.ever_initiated && !u.winner && !v.winner && u.stage == v.stage && u.phase == v.phase) {
        const std::uint32_t row = rules_[static_cast<std::size_t>(u.stage)][u.phase];
        if (!(row >> (kinds * kind_of(u) + kind_of(v)) & 1u)) return;
    }

    // Algorithm 3, lines 1-2: opinion-1 agents mark themselves defenders on
    // their first interaction as initiator (ordered algorithm only).
    if (!u.ever_initiated) {
        u.ever_initiated = true;
        if (cfg_.mode == algorithm_mode::ordered && u.stage == lifecycle_stage::init &&
            u.role == agent_role::collector && u.opinion == 1) {
            u.defender = true;
        }
    }

    // Final broadcast (§3.4): winners convert everyone and do nothing else.
    if (u.winner || v.winner) {
        if (u.winner != v.winner) {
            agent_t& convert = u.winner ? v : u;
            convert.role = agent_role::collector;
            convert.opinion = (u.winner ? u : v).opinion;
            convert.winner = true;
            convert = live_slice(convert);
        }
        return;
    }

    sync_stage_and_phase(u, v, gen);

    if (u.stage == lifecycle_stage::init && v.stage == lifecycle_stage::init) {
        if (cfg_.mode == algorithm_mode::improved) {
            init_interact_improved(u, v, gen);
        } else {
            init_interact(u, v, gen);
        }
        return;
    }
    if (u.stage == lifecycle_stage::init || v.stage == lifecycle_stage::init) return;

    // The leaderless phase clock keeps running in both remaining stages
    // (Algorithm 1, lines 5-8).  Two clocks tick even when one of them still
    // sits in the electing stage: counters are stage-agnostic, and a clock
    // that stopped ticking at the stage boundary would be stranded there
    // until it happened to meet another stranded clock.
    if (u.role == agent_role::clock && v.role == agent_role::clock) {
        const clocks::tick_result tick = clocks::leaderless_tick(u.count, v.count, cfg_.psi, gen);
        if (tick.initiator_wrapped) {
            advance_phase(u);
            on_phase_entry(u, gen);
        }
        if (tick.responder_wrapped) {
            advance_phase(v);
            on_phase_entry(v, gen);
        }
        // Clock phases must stay coherent as a (counter, phase) pair: a
        // clock that ever slips a whole revolution (possible during the long
        // election when a tie-break strands it across the circular midpoint)
        // would otherwise stay phase-shifted forever and drag the rest of
        // the population around the phase circle.  The phase-behind clock
        // adopts both the partner's phase and its counter, so it cannot
        // double-wrap right afterwards.
        if (u.stage == v.stage && u.phase != v.phase) {
            agent_t& behind = clocks::circular_behind(u.phase, v.phase, cfg_.phase_modulus()) ? u : v;
            agent_t& ahead = &behind == &u ? v : u;
            behind.count = ahead.count;
            const lifecycle_stage stage_before = behind.stage;
            while (behind.phase != ahead.phase) {
                advance_phase(behind);
                on_phase_entry(behind, gen);
                if (behind.stage != stage_before) break;
            }
        }
        sync_stage_and_phase(u, v, gen);
        if (u.stage != v.stage) return;
    }

    if (u.phase != v.phase) return;  // separator skew; no joint work this time

    if (u.stage == lifecycle_stage::electing) {
        electing_interact(u, v);
    } else {
        tournament_interact(u, v);
    }
}

// The two generators δ ever runs against: the real stream and the
// enumerating replay (sim/delta_outcomes.h).
template void plurality_protocol::interact<sim::rng>(agent_t&, agent_t&, sim::rng&) const;
template void plurality_protocol::interact<sim::delta_replay>(agent_t&, agent_t&,
                                                              sim::delta_replay&) const;

}  // namespace plurality::core
