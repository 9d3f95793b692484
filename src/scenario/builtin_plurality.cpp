// Scenario registrations for the paper's three tournament protocols
// (src/core): ordered, unordered, and improved (junta-clock pruning).
//
// Predicates and metrics are member templates over the simulation type
// (sim/population_view.h helpers), so the tournament protocols run on both
// the agent and the census backend.
#include <set>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "sim/population_view.h"

namespace plurality::scenario {

namespace {

struct plurality_spec {
    core::algorithm_mode mode;
    core::protocol_config cfg{};
    workload::opinion_distribution dist{};

    using protocol_t = core::plurality_protocol;
    using agent_t = core::core_agent;

    core::plurality_protocol make_protocol(const scenario_params& p, sim::rng& gen) {
        // The workload decides the effective n and k (e.g. "dominant" derives
        // k from the dust count), so the instance is drawn here, before the
        // protocol parameters are fixed.
        dist = make_workload(p, gen);
        cfg = core::protocol_config::make(mode, dist.n(), dist.k());
        return core::plurality_protocol{cfg};
    }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params&, sim::rng&) {
        return core::plurality_protocol::initial_census(cfg, dist);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return sim::view::all_of(s, [](const agent_t& a) { return a.winner; });
    }
    /// The opinion every (winner) agent agrees on; 0 before convergence or
    /// on disagreement — the view-based mirror of core::consensus_opinion.
    template <class Sim>
    std::uint32_t winner_opinion(const Sim& s) const {
        const auto common = sim::view::unanimous(s, [](const agent_t& a) {
            // Non-winners map to opinion 0, which can never be a consensus
            // opinion, so any non-winner blocks unanimity just as in the
            // span-based helper.
            return a.winner ? a.opinion : 0u;
        });
        return common.value_or(0u);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return winner_opinion(s) == dist.plurality_opinion();
    }
    double time_budget(const scenario_params&) const { return cfg.default_time_budget(); }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        std::set<std::uint32_t> surviving;
        s.visit_states([&surviving](const agent_t& a, std::uint64_t) {
            if (a.role == core::agent_role::collector && a.tokens > 0 && a.opinion != 0) {
                surviving.insert(a.opinion);
            }
            return true;
        });
        const auto collectors = sim::view::count_if(
            s, [](const agent_t& a) { return a.role == core::agent_role::collector; });
        const auto clocks = sim::view::count_if(
            s, [](const agent_t& a) { return a.role == core::agent_role::clock; });
        return {{"winner_opinion", static_cast<double>(winner_opinion(s))},
                {"surviving_opinions", static_cast<double>(surviving.size())},
                {"collectors", static_cast<double>(collectors)},
                {"clocks", static_cast<double>(clocks)}};
    }
};

}  // namespace

void register_plurality_scenarios(scenario_registry& registry) {
    registry.add({"plurality/ordered", "plurality",
                  "SimpleAlgorithm (Thm 1.1): ordered k-1 tournaments, exact w.h.p.",
                  plurality_spec{core::algorithm_mode::ordered}});
    registry.add({"plurality/unordered", "plurality",
                  "Unordered tournaments (Thm 1.2): leader-elected challengers",
                  plurality_spec{core::algorithm_mode::unordered}});
    registry.add({"plurality/improved", "plurality",
                  "ImprovedAlgorithm (Thm 2): junta-clock pruning, then tournaments",
                  plurality_spec{core::algorithm_mode::improved}});
}

}  // namespace plurality::scenario
