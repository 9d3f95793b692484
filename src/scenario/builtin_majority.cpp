// Scenario registrations for the four binary-majority protocols
// (src/majority).  All share the same initial-configuration convention:
// `bias` decides the support gap, minus = (n - bias) / 2 agents start on the
// minority side, plus = minus + bias on the majority side, and any parity
// leftover becomes an undecided/blank agent (added to the majority side for
// the 4-state protocol, which has no blank state).
//
// Predicates and metrics are member templates over the simulation type and
// use the weighted-state helpers of sim/population_view.h, so every
// scenario here runs on both the agent and the census backend.
#include <stdexcept>
#include <string>

#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "majority/stable_four_state.h"
#include "majority/three_state.h"
#include "scenario/builtin.h"
#include "scenario/registry.h"
#include "sim/population_view.h"
#include "sim/simulation.h"

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
    using protocol_t = majority::three_state_protocol;
    using agent_t = majority::three_state_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        using enum majority::binary_opinion;
        const auto s = split_population(p);
        return {{{alpha}, s.plus}, {{beta}, s.minus}, {{undecided}, s.blank}};
    }
    /// The common decided opinion, or `undecided` while mixed/undecided.
    template <class Sim>
    majority::binary_opinion consensus_value(const Sim& s) const {
        const auto value = sim::view::unanimous(s, [](const agent_t& a) { return a.opinion; });
        return value.value_or(majority::binary_opinion::undecided);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return consensus_value(s) != majority::binary_opinion::undecided;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return consensus_value(s) == majority::binary_opinion::alpha;
    }
    double time_budget(const scenario_params&) const { return 600.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const double undecided = sim::view::fraction(s, [](const agent_t& a) {
            return a.opinion == majority::binary_opinion::undecided;
        });
        return {{"consensus_value", static_cast<double>(consensus_value(s))},
                {"undecided_fraction", undecided}};
    }
};

struct four_state_spec {
    using protocol_t = majority::stable_four_state_protocol;
    using agent_t = majority::four_state_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        using enum majority::four_state;
        const auto s = split_population(p);
        return {{{strong_plus}, s.plus + s.blank}, {{strong_minus}, s.minus}};
    }
    /// The sign all agents output, or 0 while they disagree.
    template <class Sim>
    int consensus_sign(const Sim& s) const {
        const auto sign =
            sim::view::unanimous(s, [](const agent_t& a) { return majority::output_sign(a); });
        return sign.has_value() ? *sign : 0;
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return consensus_sign(s) != 0;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return consensus_sign(s) == 1;
    }
    double time_budget(const scenario_params& p) const {
        // Always correct but slow: the last cancellation costs Θ(n) expected
        // parallel time at bias 1, so the default budget scales with n.
        return 1.0e5 + 100.0 * static_cast<double>(p.n);
    }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const auto strong_difference = sim::view::weighted_sum(s, [](const agent_t& a) {
            if (a.state == majority::four_state::strong_plus) return 1;
            if (a.state == majority::four_state::strong_minus) return -1;
            return 0;
        });
        return {{"consensus_sign", static_cast<double>(consensus_sign(s))},
                {"strong_token_difference", static_cast<double>(strong_difference)}};
    }
};

struct averaging_spec {
    using protocol_t = majority::averaging_majority_protocol;
    using agent_t = majority::averaging_agent;

    protocol_t make_protocol(const scenario_params&, sim::rng&) { return {}; }
    std::vector<sim::census_entry<agent_t>> make_census(const scenario_params& p, sim::rng&) {
        const auto s = split_population(p);
        const std::int64_t amplification = majority::default_amplification(p.n);
        return {{{amplification}, s.plus}, {{-amplification}, s.minus}, {{0}, s.blank}};
    }
    /// plus/minus/tie when all agents agree on that verdict, else undecided.
    template <class Sim>
    majority::majority_verdict verdict(const Sim& s) const {
        const auto common =
            sim::view::unanimous(s, [](const agent_t& a) { return majority::agent_verdict(a); });
        return common.value_or(majority::majority_verdict::undecided);
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return verdict(s) != majority::majority_verdict::undecided;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return verdict(s) == majority::majority_verdict::plus;
    }
    double time_budget(const scenario_params&) const { return 600.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        return {{"verdict", static_cast<double>(verdict(s))}};
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
        return {{{+1, 0}, s.plus}, {{-1, 0}, s.minus}, {{0, 0}, s.blank}};
    }
    /// The surviving sign once the opposing tokens are extinct (0 while both
    /// signs coexist or no signed agent is left).
    template <class Sim>
    int decided_sign(const Sim& s) const {
        const bool plus = sim::view::any_of(s, [](const agent_t& a) { return a.sign > 0; });
        const bool minus = sim::view::any_of(s, [](const agent_t& a) { return a.sign < 0; });
        if (plus == minus) return 0;
        return plus ? 1 : -1;
    }
    template <class Sim>
    bool converged(const Sim& s) const {
        return decided_sign(s) != 0;
    }
    template <class Sim>
    bool correct(const Sim& s) const {
        return decided_sign(s) == 1;
    }
    double time_budget(const scenario_params&) const { return 3000.0; }
    template <class Sim>
    std::vector<metric> metrics(const Sim& s) const {
        const double signed_fraction =
            sim::view::fraction(s, [](const agent_t& a) { return a.sign != 0; });
        return {{"decided_sign", static_cast<double>(decided_sign(s))},
                {"signed_fraction", signed_fraction}};
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
