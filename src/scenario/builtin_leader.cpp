// Scenario registration for coin-flip leader election (src/leader), the
// Appendix B substrate with the [23] contract: unique leader w.h.p. in
// O(log^2 n) parallel time.  Predicates are templates over the simulation
// type (sim/population_view.h), so the election runs on both the agent and
// the census backend — note that "exactly one leader" is a *weighted* count
// in census space, not a forall.
#include <cmath>

#include "leader/leader_election.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "sim/population_view.h"

namespace plurality::scenario {

namespace {

struct leader_spec {
    std::uint16_t rounds = 0;

    using protocol_t = leader::leader_election_protocol;
    using agent_t = leader::leader_agent;

    protocol_t make_protocol(const scenario_params& p, sim::rng&) {
        rounds = leader::default_rounds(p.n);
        return protocol_t{leader::default_psi(p.n), rounds};
    }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        return {{agent_t{}, p.n}};
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        const std::uint16_t total = rounds;
        return sim::view::all_of(
            s, [total](const agent_t& a) { return a.rounds_done >= total; });
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return sim::view::count_if(s, [](const agent_t& a) { return a.leader; }) == 1;
    }
    double time_budget(const scenario_params& p) const {
        const double log_n = std::log2(static_cast<double>(p.n < 2 ? 2 : p.n));
        return 200.0 * log_n * log_n;
    }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const auto leaders = sim::view::count_if(s, [](const agent_t& a) { return a.leader; });
        const auto candidates =
            sim::view::count_if(s, [](const agent_t& a) { return a.candidate; });
        return {{"leaders", static_cast<double>(leaders)},
                {"candidates", static_cast<double>(candidates)}};
    }
};

}  // namespace

void register_leader_scenarios(scenario_registry& registry) {
    registry.add({"leader/election", "leader",
                  "Coin-flip leader election: unique leader w.h.p. in O(log^2 n)",
                  leader_spec{}});
}

}  // namespace plurality::scenario
