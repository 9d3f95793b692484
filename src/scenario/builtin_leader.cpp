// Scenario registration for coin-flip leader election (src/leader), the
// Appendix B substrate with the [23] contract: unique leader w.h.p. in
// O(log^2 n) parallel time.  The predicates and metrics call the family's
// readouts (leader/leader_election.h), templates over any population view,
// so the election runs on both the agent and the census backend.
#include <cmath>

#include "leader/leader_election.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

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
        return leader::election_finished(s, rounds);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return leader::leader_count(s) == 1;
    }
    double time_budget(const scenario_params& p) const {
        const double log_n = std::log2(static_cast<double>(p.n < 2 ? 2 : p.n));
        return 200.0 * log_n * log_n;
    }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"leaders", static_cast<double>(leader::leader_count(s))},
                {"candidates", static_cast<double>(leader::candidate_count(s))}};
    }
};

}  // namespace

void register_leader_scenarios(scenario_registry& registry) {
    registry.add({"leader/election", "leader",
                  "Coin-flip leader election: unique leader w.h.p. in O(log^2 n)",
                  leader_spec{}});
}

}  // namespace plurality::scenario
