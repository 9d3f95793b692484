// Group-level δ application machinery of the census simulator's table path
// (sim/census_simulator.h).
//
// The table path decomposes the scheduler's interaction sequence into
// collision-free runs and applies δ per ordered state-pair *group* — all m
// interactions of a run that see the same (initiator-state, responder-state)
// pair.  This header holds the parts of that stage that do not depend on how
// the run was sampled:
//
//  * `detail::delta_outcome_table` — the randomized-δ group path for
//    `delta_enumerable` protocols: per-pair outcome distributions
//    enumerated from `interact` itself (sim/delta_outcomes.h) and memoized,
//    plus the grouped sampler that splits a group of m across the outcomes
//    with one multinomial draw (dist::multinomial) instead of m per-pair RNG
//    calls.  The table path consults it only for pairs that ask for a
//    random choice: a choice-free pair (`choice_free_delta`) moves its whole
//    group with one δ evaluation;
//  * `detail::used_group_set` — post-run participant groups, one per state.
//
// States are compared as the census compares them: by their bytes
// (sim::same_state and sim::state_hash, sim/census_store.h).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/census_store.h"
#include "sim/delta_outcomes.h"
#include "sim/random_dist.h"
#include "sim/rng.h"

namespace plurality::sim {

namespace detail {

/// Post-run participant groups, one per distinct state: a flat accumulator
/// whose scratch persists across runs.  Lookups linear-scan the group list
/// while it is small — the overwhelmingly common case; grouped-δ protocols
/// produce a handful of post-states per run — and switch to a hash index
/// only once a run exceeds the threshold (per-pair-fallback runs of
/// large-S protocols).  A per-run unordered_map would rebuild a heap node
/// per group per run; the flat path is allocation-free after warm-up.
template <census_agent Agent>
class used_group_set {
public:
    /// One group of run participants sharing a post-interaction state.
    struct group {
        Agent state;
        std::uint64_t count = 0;
    };

    void clear() {
        groups_.clear();
        if (indexed_) {
            index_.clear();
            indexed_ = false;
        }
    }

    /// Adds `count` agents whose post-run state is `state`.
    void add(const Agent& state, std::uint64_t count) {
        const std::size_t at = find(state);
        if (at < groups_.size()) {
            groups_[at].count += count;
            return;
        }
        groups_.push_back({state, count});
        if (indexed_) {
            index_.insert(groups_.size() - 1);
        } else if (groups_.size() > linear_threshold) {
            build_index();
        }
    }

    /// Removes one agent from the (present) group holding `state`.
    void remove_one(const Agent& state) { --groups_[find(state)].count; }

    /// State of the participant with zero-based rank `rank` over the groups
    /// (each unit of count is one agent).
    [[nodiscard]] const Agent& state_at(std::uint64_t rank) const noexcept {
        std::uint64_t remaining = rank;
        for (const auto& g : groups_) {
            if (remaining < g.count) return g.state;
            remaining -= g.count;
        }
        return groups_.back().state;  // unreachable for rank < Σ counts
    }

    [[nodiscard]] const std::vector<group>& groups() const noexcept { return groups_; }

private:
    static constexpr std::size_t linear_threshold = 32;

    /// Index of the group holding `state`, or groups_.size() if none does.
    [[nodiscard]] std::size_t find(const Agent& state) const {
        if (indexed_) {
            const std::uint32_t at = index_.find(state);
            return at == index_.absent ? groups_.size() : at;
        }
        std::size_t at = 0;
        while (at < groups_.size() && !same_state(groups_[at].state, state)) ++at;
        return at;
    }

    void build_index() {
        index_.reserve(groups_.size());
        for (std::size_t i = 0; i < groups_.size(); ++i) index_.insert(i);
        indexed_ = true;
    }

    std::vector<group> groups_;
    state_index<group> index_{groups_};
    bool indexed_ = false;
};

/// Memoized per-pair outcome distributions plus the grouped sampler — the
/// backend side of the randomized-δ group path.  Only `lookup` needs a
/// `delta_enumerable` protocol, so the census simulator holds a table for
/// every protocol and calls it for those alone.
///
/// Enumerating a pair's outcomes costs a handful of δ evaluations
/// (sim/delta_outcomes.h walks the pair's choice tree), so distributions are
/// cached keyed by the pair's two states: a protocol's hot pairs are
/// enumerated once per simulation, not once per run.  Outcomes that collapse
/// to the same pair of states are merged at insertion, so the stored weight
/// vectors are as short as possible for the multinomial.
template <class P>
    requires census_agent<typename P::agent_t>
class delta_outcome_table {
public:
    using agent_t = typename P::agent_t;

    struct entry {
        std::vector<delta_outcome<agent_t>> outcomes;  ///< merged by state pair
        std::vector<double> weights;                   ///< their probabilities
        bool groupable = false;  ///< false: pair needs the per-pair fallback
    };

    /// Cached-pair cap: protocols cycle through a bounded hot set of pairs,
    /// so the cache normally stays far below this; a pathological protocol
    /// that keeps minting fresh pairs gets wholesale eviction (re-derivation
    /// is cheap) instead of unbounded growth.
    static constexpr std::size_t max_entries = std::size_t{1} << 20;

    /// Returns the cached entry for the ordered pair (u, v), enumerating and
    /// inserting it on first sight.  The reference is valid until the next
    /// `lookup` call.
    [[nodiscard]] const entry& lookup(const P& proto, const agent_t& u, const agent_t& v) {
        const pair_key key{u, v};
        if (const auto it = cache_.find(key); it != cache_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        if (cache_.size() >= max_entries) cache_.clear();
        entry e;
        if (enumerate_delta_outcomes(proto, u, v, scratch_)) {
            e.groupable = true;
            for (const auto& outcome : scratch_) {
                std::size_t i = 0;
                while (i < e.outcomes.size() &&
                       !(same_state(e.outcomes[i].initiator, outcome.initiator) &&
                         same_state(e.outcomes[i].responder, outcome.responder)))
                    ++i;
                if (i < e.outcomes.size()) {
                    e.weights[i] += outcome.probability;
                } else {
                    e.outcomes.push_back(outcome);
                    e.weights.push_back(outcome.probability);
                }
            }
        }
        return cache_.emplace(key, std::move(e)).first->second;
    }

    /// Advances a group of `count` interactions that all see the entry's
    /// ordered state pair: one multinomial split of `count` across the
    /// outcomes (a single categorical draw when count == 1; no randomness at
    /// all for single-outcome pairs).  `add(state, count)` receives each
    /// outcome's post-states.
    template <class Add>
    void apply_group(const entry& e, rng& gen, std::uint64_t count, Add&& add) {
        const auto& outcomes = e.outcomes;
        if (outcomes.size() == 1) {
            add(outcomes[0].initiator, count);
            add(outcomes[0].responder, count);
            return;
        }
        if (count == 1) {
            const double r = gen.next_unit();
            double acc = 0.0;
            std::size_t pick = outcomes.size() - 1;  // fp-slack catch-all
            for (std::size_t i = 0; i + 1 < outcomes.size(); ++i) {
                acc += e.weights[i];
                if (r < acc) {
                    pick = i;
                    break;
                }
            }
            add(outcomes[pick].initiator, 1);
            add(outcomes[pick].responder, 1);
            return;
        }
        split_.assign(outcomes.size(), 0);
        dist::multinomial(gen, e.weights, count, split_);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (split_[i] == 0) continue;
            add(outcomes[i].initiator, split_[i]);
            add(outcomes[i].responder, split_[i]);
        }
    }

    /// Cache hit/miss counts over every `lookup` (at most one lookup per
    /// group application, so the increments are cold relative to the draws
    /// they guard; they stay plain members rather than policy-gated
    /// instruments, and the backends export them as `outcome_table_*`
    /// metrics when observability is compiled in).
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

private:
    /// The ordered state pair, itself a census_agent: two padding-free
    /// states of one type leave no gap between them.
    struct pair_key {
        agent_t initiator;
        agent_t responder;
    };

    struct pair_key_ops {
        [[nodiscard]] std::size_t operator()(const pair_key& key) const noexcept {
            return state_hash(key);
        }
        [[nodiscard]] bool operator()(const pair_key& a, const pair_key& b) const noexcept {
            return same_state(a, b);
        }
    };

    std::unordered_map<pair_key, entry, pair_key_ops, pair_key_ops> cache_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<delta_outcome<agent_t>> scratch_;  ///< raw enumeration output
    std::vector<std::uint64_t> split_;             ///< multinomial output
};

}  // namespace detail

}  // namespace plurality::sim
