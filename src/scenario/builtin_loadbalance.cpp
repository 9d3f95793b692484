// Scenario registration for floor/ceil averaging load balancing
// (src/loadbalance): one hot spot holding n load units spreads to
// discrepancy <= 2 within O(log n) parallel time w.h.p.  The predicates and
// metrics call the family's readouts (loadbalance/load_balancer.h),
// templates over any population view, so the scenario runs on both the
// agent and the census backend.
#include "loadbalance/load_balancer.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

namespace plurality::scenario {

namespace {

struct loadbalance_spec {
    using protocol_t = loadbalance::load_balance_protocol;
    using agent_t = loadbalance::load_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        return {{{static_cast<std::int64_t>(p.n)}, 1}, {{0}, p.n - 1u}};
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return loadbalance::discrepancy(s) <= 2;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        // The total load is invariant; anything else is an engine bug.
        return loadbalance::total_load(s) == static_cast<std::int64_t>(s.population_size());
    }
    double time_budget(const scenario_params&) const { return 400.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"discrepancy", static_cast<double>(loadbalance::discrepancy(s))},
                {"total_load", static_cast<double>(loadbalance::total_load(s))}};
    }
};

}  // namespace

void register_loadbalance_scenarios(scenario_registry& registry) {
    registry.add({"loadbalance/averaging", "loadbalance",
                  "Floor/ceil averaging from one hot spot to discrepancy <= 2",
                  loadbalance_spec{}});
}

}  // namespace plurality::scenario
