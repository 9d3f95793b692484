// Scenario registration for the approximate undecided-state-dynamics
// plurality baseline (src/baselines).  The predicates and metrics call the
// family's readouts (baselines/usd_plurality.h), templates over any
// population view, so the baseline runs on both the agent and the census
// backend — USD's state space is just {0..k}, which makes it the cheapest
// census-space scenario and the one bench_e15_census pushes to n = 10⁹.
#include "baselines/usd_plurality.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

namespace plurality::scenario {

namespace {

struct usd_spec {
    workload::opinion_distribution dist{};

    using protocol_t = baselines::usd_plurality_protocol;
    using agent_t = baselines::usd_agent;

    protocol_t make_protocol(const scenario_params& p, sim::rng& gen) {
        dist = make_workload(p, gen);
        return {};
    }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params&, sim::rng&) {
        return baselines::initial_census(dist);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return baselines::consensus_reached(s);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return baselines::consensus_opinion(s) == dist.plurality_opinion();
    }
    double time_budget(const scenario_params&) const { return 8000.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"winner_opinion", static_cast<double>(baselines::consensus_opinion(s))},
                {"undecided_fraction", baselines::undecided_fraction(s)}};
    }
};

}  // namespace

void register_baseline_scenarios(scenario_registry& registry) {
    registry.add({"baselines/usd", "baselines",
                  "Undecided-state dynamics: approximate plurality, coin-flips at bias 1",
                  usd_spec{}});
}

}  // namespace plurality::scenario
