// Scenario registration for the approximate undecided-state-dynamics
// plurality baseline (src/baselines).  Predicates are templates over the
// simulation type (sim/population_view.h), so the baseline runs on both the
// agent and the census backend — USD's state space is just {0..k}, which
// makes it the cheapest census-space scenario and the one bench_e15_census
// pushes to n = 10⁹.
#include "baselines/usd_plurality.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "sim/population_view.h"
#include "sim/simulation.h"

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
    /// The decided opinion all agents share, or 0 while mixed/undecided.
    template <class Sim>
    std::uint32_t consensus(const Sim& s) const {
        const auto common = sim::view::unanimous(s, [](const agent_t& a) { return a.opinion; });
        return common.value_or(0u);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return consensus(s) != 0;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return consensus(s) == dist.plurality_opinion();
    }
    double time_budget(const scenario_params&) const { return 8000.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const double undecided =
            sim::view::fraction(s, [](const agent_t& a) { return a.opinion == 0; });
        return {{"winner_opinion", static_cast<double>(consensus(s))},
                {"undecided_fraction", undecided}};
    }
};

}  // namespace

void register_baseline_scenarios(scenario_registry& registry) {
    registry.add({"baselines/usd", "baselines",
                  "Undecided-state dynamics: approximate plurality, coin-flips at bias 1",
                  usd_spec{}});
}

}  // namespace plurality::scenario
