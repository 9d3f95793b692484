// Scenario registrations for the four binary-majority protocols.  All share
// the same initial-configuration convention: `bias` decides the support gap,
// minus = (n - bias) / 2 agents start on the minority side, plus = minus +
// bias on the majority side, and any parity leftover is one blank agent;
// each protocol's census builder says where its blank agents start.
//
// Two of the four run another family's δ: the 3-state approximate majority
// is undecided-state dynamics at k = 2 (src/baselines), and the averaging
// exact majority is load balancing (src/loadbalance) from amplified ±1
// inputs, read out by src/majority/averaging_majority.h.
//
// The predicates and metrics call each protocol's readouts, templates over
// any population view, so every scenario here runs on both the agent and
// the census backend.
#include <stdexcept>
#include <string>

#include "baselines/usd_plurality.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "majority/stable_four_state.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"

namespace plurality::scenario {

namespace {

struct majority_split {
    std::uint32_t plus = 0;
    std::uint32_t minus = 0;
    std::uint32_t blank = 0;
};

/// Throws std::invalid_argument when the gap exceeds the population: a
/// clamped gap would silently run from a unanimous start.
majority_split split_population(const scenario_params& p) {
    if (p.bias > p.n)
        throw std::invalid_argument("invalid --bias " + std::to_string(p.bias) + " for --n " +
                                    std::to_string(p.n) + " (expected a gap from 0 to n)");
    majority_split s;
    s.minus = (p.n - p.bias) / 2;
    s.plus = s.minus + p.bias;
    s.blank = p.n - s.plus - s.minus;
    return s;
}

struct three_state_spec {
    using protocol_t = baselines::usd_plurality_protocol;
    using agent_t = baselines::usd_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const auto s = split_population(p);
        return baselines::binary_census(s.plus, s.minus, s.blank);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return baselines::consensus_reached(s);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return baselines::consensus_opinion(s) == 1;
    }
    double time_budget(const scenario_params&) const { return 600.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"consensus_value", static_cast<double>(baselines::consensus_opinion(s))},
                {"undecided_fraction", baselines::undecided_fraction(s)}};
    }
};

struct four_state_spec {
    using protocol_t = majority::stable_four_state_protocol;
    using agent_t = majority::four_state_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const auto s = split_population(p);
        return majority::four_state_census(s.plus, s.minus, s.blank);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return majority::consensus_reached(s);
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return majority::consensus_sign(s) == 1;
    }
    double time_budget(const scenario_params& p) const {
        // Always correct but slow: the last cancellation costs Θ(n) expected
        // parallel time at bias 1, so the default budget scales with n.
        return 1.0e5 + 100.0 * static_cast<double>(p.n);
    }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"consensus_sign", static_cast<double>(majority::consensus_sign(s))},
                {"strong_token_difference",
                 static_cast<double>(majority::strong_token_difference(s))}};
    }
};

struct averaging_spec {
    using protocol_t = loadbalance::load_balance_protocol;
    using agent_t = loadbalance::load_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const auto s = split_population(p);
        return majority::averaging_census(s.plus, s.minus, s.blank,
                                          majority::default_amplification(p.n));
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return majority::population_verdict(s) != majority::majority_verdict::undecided;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return majority::population_verdict(s) == majority::majority_verdict::plus;
    }
    double time_budget(const scenario_params&) const { return 600.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"verdict", static_cast<double>(majority::population_verdict(s))}};
    }
};

struct cancel_double_spec {
    using protocol_t = majority::cancel_double_protocol;
    using agent_t = majority::cancel_double_agent;

    protocol_t make_protocol(const scenario_params& p, sim::rng&) {
        return majority::cancel_double_protocol{majority::default_level_cap(p.n)};
    }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const auto s = split_population(p);
        return majority::cancel_double_census(s.plus, s.minus, s.blank);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return majority::decided_sign(s) != 0;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return majority::decided_sign(s) == 1;
    }
    double time_budget(const scenario_params&) const { return 3000.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"decided_sign", static_cast<double>(majority::decided_sign(s))},
                {"signed_fraction", majority::signed_fraction(s)}};
    }
};

}  // namespace

void register_majority_scenarios(scenario_registry& registry) {
    registry.add({"majority/three-state", "majority",
                  "3-state approximate majority [4]: fast, wrong at small bias",
                  three_state_spec{}});
    registry.add({"majority/four-state", "majority",
                  "Stable 4-state exact majority: always correct, Theta(n) at bias 1",
                  four_state_spec{}});
    registry.add({"majority/averaging", "majority",
                  "Averaging exact majority (FOCS'21 substitute): w.h.p. in O(log n)",
                  averaging_spec{}});
    registry.add({"majority/cancel-double", "majority",
                  "Cancellation/doubling exact majority: O(log n) states, polylog time",
                  cancel_double_spec{}});
}

}  // namespace plurality::scenario
