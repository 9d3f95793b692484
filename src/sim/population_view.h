// Backend-agnostic configuration inspection.
//
// Every simulation backend exposes the same read primitive,
//
//     sim.visit_states(fn)   // fn(const agent_t&, std::uint64_t count) -> bool
//
// which visits every occupied state with its multiplicity (the agent-based
// backend visits each agent with count 1; the census backend visits
// each slot of sim::census_simulator's occupied list, in the list's order,
// which is a pure function of the seed but not the order the states were
// discovered in).  A plain contiguous range of agents — a std::vector, a
// std::span such as `simulation::agents()`, a std::array — is a view too:
// each agent is a state of multiplicity 1.  No helper depends on the visit
// order.  The helpers below express the predicates and metrics the
// scenario layer needs — "all agents satisfy p", "how many satisfy p", "do
// all agents project to one value" — in terms of that primitive, so one
// templated predicate implementation serves every backend and the tests.
// All helpers early-exit where the answer allows it.
//
// Each protocol family writes its readouts (convergence and correctness
// predicates, metric values, inspection helpers) once, in its own header,
// as templates constrained by `population_of<Pop, Agent>`; the scenario
// specs, the run helpers, tests and benches all call those.  A count must
// be a weighted count: on a census a forall over states (`all_of`) is not
// "exactly one agent" (`count_if(...) == 1`).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <ranges>
#include <type_traits>
#include <utility>

namespace plurality::sim::view {

/// The read API every backend shares: weighted state visitation plus a
/// total population count.
template <class Sim>
concept state_visitor = requires(const Sim& s) {
    s.visit_states([](const auto&, std::uint64_t) { return true; });
    { s.population_size() } -> std::convertible_to<std::size_t>;
};

/// A backend, or a contiguous range of agents of weight 1 each.
template <class Sim>
concept population_view = state_visitor<Sim> || std::ranges::contiguous_range<const Sim>;

namespace detail {
template <class Sim>
struct agent_of : std::type_identity<std::ranges::range_value_t<const Sim>> {};
template <state_visitor Sim>
struct agent_of<Sim> : std::type_identity<typename Sim::agent_t> {};
}  // namespace detail

/// The agent type of a view's states.
template <population_view Sim>
using agent_of_t = typename detail::agent_of<Sim>::type;

/// A view whose states are `Agent`s — what a family's readouts accept, so
/// that readouts of different families can share a name.
template <class Sim, class Agent>
concept population_of = population_view<Sim> && std::same_as<agent_of_t<Sim>, Agent>;

/// Calls `fn(state, count)` for every occupied state until it returns false.
template <population_view Sim, class Fn>
void visit_states(const Sim& s, Fn&& fn) {
    if constexpr (state_visitor<Sim>) {
        s.visit_states(fn);
    } else {
        for (const auto& agent : s) {
            if (!fn(agent, std::uint64_t{1})) return;
        }
    }
}

/// Number of agents in the view.
template <population_view Sim>
[[nodiscard]] std::size_t population_size(const Sim& s) {
    if constexpr (state_visitor<Sim>) {
        return s.population_size();
    } else {
        return std::ranges::size(s);
    }
}

/// True when every agent (equivalently: every occupied state) satisfies
/// `pred`.  True on an empty population.
template <population_view Sim, class Pred>
[[nodiscard]] bool all_of(const Sim& s, Pred pred) {
    bool holds = true;
    view::visit_states(s, [&](const auto& state, std::uint64_t) {
        holds = static_cast<bool>(pred(state));
        return holds;
    });
    return holds;
}

/// True when at least one agent satisfies `pred`.
template <population_view Sim, class Pred>
[[nodiscard]] bool any_of(const Sim& s, Pred pred) {
    return !all_of(s, [&pred](const auto& state) { return !pred(state); });
}

/// Number of agents satisfying `pred` (weighted by state multiplicity).
template <population_view Sim, class Pred>
[[nodiscard]] std::uint64_t count_if(const Sim& s, Pred pred) {
    std::uint64_t total = 0;
    view::visit_states(s, [&](const auto& state, std::uint64_t count) {
        if (pred(state)) total += count;
        return true;
    });
    return total;
}

/// Fraction of agents satisfying `pred`; 0 on an empty population.
template <population_view Sim, class Pred>
[[nodiscard]] double fraction(const Sim& s, Pred pred) {
    const std::size_t n = view::population_size(s);
    if (n == 0) return 0.0;
    return static_cast<double>(count_if(s, pred)) / static_cast<double>(n);
}

/// Σ over agents of `value(state)` — each state's value weighted by its
/// multiplicity.  The accumulator is signed 64-bit; callers own overflow.
template <population_view Sim, class Value>
[[nodiscard]] std::int64_t weighted_sum(const Sim& s, Value value) {
    std::int64_t total = 0;
    view::visit_states(s, [&](const auto& state, std::uint64_t count) {
        total += static_cast<std::int64_t>(count) * static_cast<std::int64_t>(value(state));
        return true;
    });
    return total;
}

/// The single value all agents project to under `proj`, or nullopt if the
/// population is empty or projections disagree.  The workhorse of consensus
/// predicates: "all agents hold the same decided opinion" is
/// `unanimous(s, opinion_of) == some_decided_value`.
template <population_view Sim, class Proj>
[[nodiscard]] auto unanimous(const Sim& s, Proj proj) {
    using value_t = std::decay_t<decltype(proj(std::declval<const agent_of_t<Sim>&>()))>;
    std::optional<value_t> common;
    bool agree = true;
    view::visit_states(s, [&](const auto& state, std::uint64_t) {
        const value_t value = proj(state);
        if (!common.has_value()) {
            common = value;
        } else if (*common != value) {
            agree = false;
        }
        return agree;
    });
    return agree ? common : std::optional<value_t>{};
}

/// Minimum and maximum of `proj` over occupied states (multiplicity is
/// irrelevant for extrema), or nullopt on an empty population.
template <population_view Sim, class Proj>
[[nodiscard]] auto extrema(const Sim& s, Proj proj) {
    using value_t = std::decay_t<decltype(proj(std::declval<const agent_of_t<Sim>&>()))>;
    std::optional<std::pair<value_t, value_t>> range;
    view::visit_states(s, [&](const auto& state, std::uint64_t) {
        const value_t value = proj(state);
        if (!range.has_value()) {
            range = {value, value};
        } else {
            if (value < range->first) range->first = value;
            if (value > range->second) range->second = value;
        }
        return true;
    });
    return range;
}

}  // namespace plurality::sim::view
