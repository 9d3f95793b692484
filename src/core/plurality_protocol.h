// The paper's exact-plurality-consensus protocols as one configurable
// transition function:
//
//  * algorithm_mode::ordered   — SimpleAlgorithm (§3, Algorithms 1-4).
//  * algorithm_mode::unordered — SimpleAlgorithm without an opinion order
//                                (Appendix B): a leader elected among the
//                                trackers samples each tournament's
//                                challenger, trackers amplify rare opinions.
//  * algorithm_mode::improved  — ImprovedAlgorithm (§4, Algorithm 5):
//                                per-opinion junta clocks prune
//                                insignificant opinions before the
//                                (unordered) tournaments begin.
//
// The three modes share the tournament machinery: an initialization stage
// splits the population into collector/clock/tracker/player roles; the
// leaderless phase clock of [1] partitions time into phases; each
// tournament runs setup -> cancellation -> lineup -> match -> conclusion in
// the even phases with odd separator phases in between (§3.3); the final
// winner is flooded to everyone (§3.4).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/agent.h"
#include "core/config.h"
#include "sim/census_store.h"
#include "sim/delta_outcomes.h"
#include "sim/rng.h"
#include "workload/opinion_distribution.h"

namespace plurality::core {

class plurality_protocol {
public:
    using agent_t = core_agent;

    explicit plurality_protocol(protocol_config cfg);

    /// The population-protocol transition function δ(u, v); u is the
    /// initiator, v the responder (paper §2).  Templated over the generator
    /// and explicitly instantiated for `sim::rng` and `sim::delta_replay`
    /// in plurality_protocol.cpp, so the randomized-δ enumerator
    /// (sim/delta_outcomes.h) can replay it against scripted choices: every
    /// random choice of δ — the role die, the election coins, the clock
    /// tie-break, the slowed count decrement — draws from a distribution
    /// fixed by the ordered state pair, so almost every reachable pair
    /// enumerates to a small exact outcome list; the few that exceed the
    /// enumeration caps (e.g. an agent stepping through many phases at
    /// once) keep the exact per-pair fallback.
    ///
    /// δ runs on every interaction the agent backend schedules, and opens
    /// with one rule-table test: an initiated initiator and a responder,
    /// neither a winner, in the same post-init stage and phase, whose kind
    /// pair no rule of that (stage, phase) touches, are left as they are
    /// without reading anything else.  Every other pair runs the full
    /// transition, so the early return draws nothing and moves no
    /// trajectory.
    template <class R>
    void interact(agent_t& initiator, agent_t& responder, R& gen) const;

    /// Activity-class hook (sim/census_store.h): the census backend
    /// skips, without calling δ, every interaction whose class pair
    /// `may_act` declares inactive.  Class 0 holds every agent that never
    /// initiated (its first initiation always sets `ever_initiated`) and
    /// every non-winner in the init stage; class 1 holds the initiated
    /// winners (they convert everyone but each other).  Every other agent's
    /// class is (stage, phase, kind): the tournaments stage's classes come
    /// first, then the electing stage's, which ordered mode — it elects no
    /// leader — does not declare (52 classes there, 122 in the others).
    /// `may_act` answers a pair in one stage and phase from the rule table
    /// δ's early return reads, so which pairs can act is written once; what
    /// the table cannot say — pairs across stages, two clocks, the phase
    /// catch-up — it states beside it.  tests/test_activity_classes.cpp
    /// checks the declaration against δ's exact outcome lists in all three
    /// modes and pins whole agent trajectories, which guard the table
    /// itself.
    [[nodiscard]] std::uint32_t activity_classes() const noexcept;
    [[nodiscard]] std::uint32_t activity_class(const agent_t& agent) const noexcept;
    [[nodiscard]] bool may_act(std::uint32_t initiator_class,
                               std::uint32_t responder_class) const noexcept;

    [[nodiscard]] const protocol_config& config() const noexcept { return cfg_; }

    /// The agent's state as the paper counts it (§3.4 and Figure 1 of
    /// arXiv:2402.06471): the shared variables (role, stage, phase, do-once
    /// bits, `ever_initiated`, `winner`) plus what δ can still read of the
    /// agent's role in its stage and mode — for a winner, which only
    /// converts the agents it meets, what the readouts of core/result.h
    /// read — with every other field at its default.  δ applies it where a
    /// field's use ends (a role assigned, a stage entered, a counting agent
    /// formed, a winner made), so every state δ produces is its own live
    /// slice, and the census, whose state identity is the agent's bytes,
    /// counts the paper's states.  It draws nothing and clears only fields
    /// nothing reads again, so no agent trajectory depends on it.
    [[nodiscard]] core_agent live_slice(const core_agent& agent) const noexcept;

    /// The initial configuration as a census: every agent is a collector
    /// holding one token of its opinion, so there is one entry per
    /// supported opinion, in opinion order.
    [[nodiscard]] static std::vector<sim::census_entry<core_agent>> initial_census(
        const protocol_config& cfg, const workload::opinion_distribution& dist);

    /// The same configuration as agents, shuffled so identity never encodes
    /// the opinion: `sim::expand_census(initial_census(cfg, dist), gen)`.
    [[nodiscard]] static std::vector<core_agent> make_population(
        const protocol_config& cfg, const workload::opinion_distribution& dist, sim::rng& gen);

private:
    // -- stage / phase bookkeeping -----------------------------------------
    // Every helper that consults the generator is templated over it, so the
    // whole call graph can run against sim::delta_replay (see interact).
    template <class R>
    void enter_stage(agent_t& agent, lifecycle_stage target, R& gen) const;
    void advance_phase(agent_t& agent) const;
    /// The phase broadcast's catch-up: steps `behind` through each phase up
    /// to `phase`, firing every entry action, and stops early if one moves
    /// it to another stage.
    template <class R>
    void catch_up(agent_t& behind, std::uint8_t phase, R& gen) const;
    /// The stage initialization hands over to: the tournaments in ordered
    /// mode, the leader election in the others.
    [[nodiscard]] lifecycle_stage stage_after_init() const noexcept {
        return cfg_.mode == algorithm_mode::ordered ? lifecycle_stage::tournaments
                                                    : lifecycle_stage::electing;
    }
    template <class R>
    void sync_stage_and_phase(agent_t& u, agent_t& v, R& gen) const;
    template <class R>
    void on_phase_entry(agent_t& agent, R& gen) const;

    // -- per-stage interaction logic ----------------------------------------
    template <class R>
    void init_interact(agent_t& u, agent_t& v, R& gen) const;
    template <class R>
    void init_interact_improved(agent_t& u, agent_t& v, R& gen) const;
    void electing_interact(agent_t& u, agent_t& v) const;
    void tournament_interact(agent_t& u, agent_t& v) const;

    // tournament working phases (x = either party, directionless helpers
    // receive both orders where the paper's rule is initiator-specific)
    void select_pair(agent_t& a, agent_t& b) const;
    void setup_pair(agent_t& a, agent_t& b) const;
    void lineup_pair(agent_t& initiator, agent_t& responder) const;
    void conclude_pair(agent_t& collector, agent_t& player) const;

    template <class R>
    void assign_random_role(agent_t& agent, R& gen) const;
    [[nodiscard]] bool is_select_phase(std::uint8_t phase) const noexcept;

    /// An agent's kind: its role, with the trackers that carry the crown
    /// bit the aftermath reads (tcnt == k + 1 in ordered mode, `finished`
    /// otherwise) apart as a fifth kind.
    [[nodiscard]] std::uint32_t kind_of(const agent_t& agent) const noexcept;

    /// One rule-table column per phase of the longest tournament cycle.
    static constexpr std::uint32_t max_phases = 12;

    protocol_config cfg_;
    /// The rule table, built once by the constructor: per (stage, phase),
    /// the (initiator kind, responder kind) pairs some rule of δ can change
    /// when both agents sit in that stage and phase, bit 5·initiator kind +
    /// responder kind.  Init holds every pair (its rules read opinions and
    /// tokens, not roles); electing holds clock×clock and tracker×tracker;
    /// tournaments hold the working row (a crowned tracker counts as a
    /// tracker), clock×clock and the aftermath pairs.
    std::array<std::array<std::uint32_t, max_phases>, 3> rules_{};  // [stage][phase]
};

}  // namespace plurality::core
