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

#include <cstdint>
#include <span>
#include <vector>

#include "core/agent.h"
#include "core/config.h"
#include "sim/delta_outcomes.h"
#include "sim/rng.h"
#include "workload/opinion_distribution.h"

namespace plurality::core {

class plurality_protocol {
public:
    using agent_t = core_agent;

    explicit plurality_protocol(protocol_config cfg);

    /// The population-protocol transition function δ(u, v); u is the
    /// initiator, v the responder (paper §2).
    void interact(agent_t& initiator, agent_t& responder, sim::rng& gen) const {
        interact_t(initiator, responder, gen);
    }

    /// The transition function, templated over the generator so the
    /// randomized-δ enumerator (sim/delta_outcomes.h) can replay it against
    /// scripted choices.  Explicitly instantiated for `sim::rng` and
    /// `sim::delta_replay` in plurality_protocol.cpp.
    template <class R>
    void interact_t(agent_t& initiator, agent_t& responder, R& gen) const;

    /// Randomized-δ group hook (sim/delta_outcomes.h): every random choice
    /// of δ — the role die, the election coins, the clock tie-break, the
    /// slowed count decrement — draws from a distribution fixed by the
    /// ordered state pair, so almost every reachable pair enumerates to a
    /// small exact outcome list; the few that exceed the enumeration caps
    /// (e.g. an agent stepping through many phases at once) return false and
    /// keep the exact per-pair fallback.
    [[nodiscard]] bool delta_outcomes(const agent_t& u, const agent_t& v,
                                      std::vector<sim::delta_outcome<agent_t>>& out) const {
        return sim::enumerate_delta_outcomes(*this, u, v, out);
    }

    /// Activity-class hook (sim/census_store.h): the census-space backends
    /// skip, without calling δ, every interaction whose class pair
    /// `may_act` declares inactive.  Class 0 holds every agent outside the
    /// tournaments stage and every agent that never initiated (its first
    /// initiation always sets `ever_initiated`); class 1 holds the winners
    /// (they convert everyone but each other).  In the tournaments stage a
    /// class is (phase, kind): the role, with trackers split by the crown
    /// bit the aftermath rules read — tcnt == k + 1 in ordered mode,
    /// `finished` in the unordered modes.  `may_act` follows δ rule by rule
    /// (plurality_protocol.cpp); tests/test_activity_classes.cpp checks it
    /// against δ's exact outcome lists in all three modes.
    [[nodiscard]] std::uint32_t activity_classes() const noexcept;
    [[nodiscard]] std::uint32_t activity_class(const agent_t& agent) const noexcept;
    [[nodiscard]] bool may_act(std::uint32_t initiator_class,
                               std::uint32_t responder_class) const noexcept;

    [[nodiscard]] const protocol_config& config() const noexcept { return cfg_; }

    /// Builds the initial configuration: every agent is a collector holding
    /// one token of its opinion; agent order is shuffled so identity never
    /// encodes the opinion.
    [[nodiscard]] static std::vector<core_agent> make_population(
        const protocol_config& cfg, const workload::opinion_distribution& dist, sim::rng& gen);

private:
    // -- stage / phase bookkeeping -----------------------------------------
    // Every helper that consults the generator is templated over it, so the
    // whole call graph can run against sim::delta_replay (see interact_t).
    template <class R>
    void enter_stage(agent_t& agent, lifecycle_stage target, R& gen) const;
    void set_phase(agent_t& agent, std::uint8_t phase) const;
    void advance_phase(agent_t& agent) const;
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

    protocol_config cfg_;
};

}  // namespace plurality::core
