// Backend-agnostic configuration inspection.
//
// Every simulation backend exposes the same read primitive,
//
//     sim.visit_states(fn)   // fn(const agent_t&, std::uint64_t count) -> bool
//
// which visits every occupied state with its multiplicity (the agent-based
// backend visits each agent with count 1; the census-space backends visit
// each slot of sim::census_simulator's occupied list, in the list's order,
// which is a pure function of the seed but not the order the states were
// discovered in).  No helper depends on the visit order.  The helpers below
// express the predicates and metrics the scenario layer needs — "all agents
// satisfy p", "how many satisfy p", "do all agents project to one value" —
// in terms of that primitive, so one templated predicate implementation
// serves every backend.  All helpers early-exit where the answer allows it.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

namespace plurality::sim::view {

/// The read API every backend shares: weighted state visitation plus a
/// total population count.
template <class Sim>
concept population_view = requires(const Sim& s) {
    s.visit_states([](const auto&, std::uint64_t) { return true; });
    { s.population_size() } -> std::convertible_to<std::size_t>;
};

/// True when every agent (equivalently: every occupied state) satisfies
/// `pred`.  True on an empty population.
template <population_view Sim, class Pred>
[[nodiscard]] bool all_of(const Sim& s, Pred pred) {
    bool holds = true;
    s.visit_states([&](const auto& state, std::uint64_t) {
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
    s.visit_states([&](const auto& state, std::uint64_t count) {
        if (pred(state)) total += count;
        return true;
    });
    return total;
}

/// Fraction of agents satisfying `pred`; 0 on an empty population.
template <population_view Sim, class Pred>
[[nodiscard]] double fraction(const Sim& s, Pred pred) {
    const std::size_t n = s.population_size();
    if (n == 0) return 0.0;
    return static_cast<double>(count_if(s, pred)) / static_cast<double>(n);
}

/// Σ over agents of `value(state)` — each state's value weighted by its
/// multiplicity.  The accumulator is signed 64-bit; callers own overflow.
template <population_view Sim, class Value>
[[nodiscard]] std::int64_t weighted_sum(const Sim& s, Value value) {
    std::int64_t total = 0;
    s.visit_states([&](const auto& state, std::uint64_t count) {
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
    using value_t =
        std::decay_t<decltype(proj(*static_cast<const typename Sim::agent_t*>(nullptr)))>;
    std::optional<value_t> common;
    bool agree = true;
    s.visit_states([&](const auto& state, std::uint64_t) {
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
    using value_t =
        std::decay_t<decltype(proj(*static_cast<const typename Sim::agent_t*>(nullptr)))>;
    std::optional<std::pair<value_t, value_t>> range;
    s.visit_states([&](const auto& state, std::uint64_t) {
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
