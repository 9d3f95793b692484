// Scenario registrations for the paper's three tournament protocols
// (src/core): ordered, unordered, and improved (junta-clock pruning).
//
// The predicates and metrics call the tournament's readouts (core/result.h),
// templates over any population view, so the tournament protocols run on
// both the agent and the census backend.
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

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
        return core::all_winners(s);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return core::consensus_opinion(s) == dist.plurality_opinion();
    }
    double time_budget(const scenario_params&) const { return cfg.default_time_budget(); }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const auto roles = core::role_counts(s);
        const auto agents_in = [&roles](core::agent_role role) {
            return static_cast<double>(roles[static_cast<std::size_t>(role)]);
        };
        return {{"winner_opinion", static_cast<double>(core::consensus_opinion(s))},
                {"surviving_opinions", static_cast<double>(core::surviving_opinions(s).size())},
                {"collectors", agents_in(core::agent_role::collector)},
                {"clocks", agents_in(core::agent_role::clock)}};
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
