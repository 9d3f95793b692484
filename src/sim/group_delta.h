// Group-level δ application machinery of the leap census backend
// (sim/leap_census_simulator.h).
//
// The leap backend decomposes the scheduler's interaction sequence into
// collision-free runs and applies δ per ordered state-pair *group* — all m
// interactions of a run that see the same (initiator-state, responder-state)
// pair.  This header holds the parts of that stage that do not depend on how
// the run was sampled:
//
//  * `declares_deterministic_delta` — the protocol trait for RNG-free pairs
//    (one δ evaluation moves the whole group's mass);
//  * `detail::delta_outcome_table` — the randomized-δ group path: memoized
//    per-pair outcome distributions (sim/delta_outcomes.h) plus the grouped
//    sampler that splits a group of m across the outcomes with one
//    multinomial draw (dist::multinomial) instead of m per-pair RNG calls;
//  * `detail::used_group_set` — post-run participant groups keyed by census
//    key;
//  * `detail::execute_colliding_interaction` — the exact three-case
//    (both-used / used-fresh / fresh-used) interaction that ends a run.
#pragma once

#include <concepts>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/census_store.h"
#include "sim/delta_outcomes.h"
#include "sim/random_dist.h"
#include "sim/rng.h"

namespace plurality::sim {

/// A protocol may declare, per ordered state pair, that δ is RNG-free and a
/// pure function of the two states — the hook that unlocks grouped δ
/// application.  Protocols without the hook (and without `delta_outcomes`,
/// sim/delta_outcomes.h) are treated as fully randomized (correct, just
/// slower).
template <class P>
concept declares_deterministic_delta =
    requires(const P p, const typename P::agent_t& u, const typename P::agent_t& v) {
        { p.deterministic_delta(u, v) } -> std::convertible_to<bool>;
    };

namespace detail {

/// Post-run participant groups keyed by census key: a flat accumulator whose
/// scratch persists across runs.  Lookups linear-scan the group list while it
/// is small — the overwhelmingly common case; grouped-δ protocols produce a
/// handful of post-states per run — and switch to a hash index only once a
/// run exceeds the threshold (per-pair-fallback runs of large-S protocols).
/// A per-run unordered_map would rebuild a heap node per group per run; the
/// flat path is allocation-free after warm-up.
template <class Agent, class Key>
class used_group_set {
public:
    /// One group of run participants sharing a post-interaction state.
    struct group {
        Agent state;
        Key key{};
        std::uint64_t count = 0;
    };

    void clear() {
        groups_.clear();
        if (indexed_) {
            index_.clear();
            indexed_ = false;
        }
    }

    /// Adds `count` agents whose post-run state is `state` (encoded `key`).
    void add(const Agent& state, const Key& key, std::uint64_t count) {
        if (!indexed_) {
            for (auto& g : groups_) {
                if (g.key == key) {
                    g.count += count;
                    return;
                }
            }
            groups_.push_back({state, key, count});
            if (groups_.size() > linear_threshold) build_index();
            return;
        }
        const auto [it, inserted] =
            index_.try_emplace(key, static_cast<std::uint32_t>(groups_.size()));
        if (inserted) {
            groups_.push_back({state, key, count});
        } else {
            groups_[it->second].count += count;
        }
    }

    /// Removes one agent from the (present) group with this key.
    void remove_one(const Key& key) {
        if (!indexed_) {
            for (auto& g : groups_) {
                if (g.key == key) {
                    --g.count;
                    return;
                }
            }
            return;  // unreachable for keys previously added
        }
        --groups_[index_.find(key)->second].count;
    }

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

    void build_index() {
        index_.reserve(groups_.size());
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            index_.try_emplace(groups_[i].key, static_cast<std::uint32_t>(i));
        }
        indexed_ = true;
    }

    std::vector<group> groups_;
    std::unordered_map<Key, std::uint32_t, census_key_hash> index_;
    bool indexed_ = false;
};

/// Executes the interaction that ends a collision-free run: a uniform
/// ordered pair of distinct agents conditioned on touching at least one of
/// the `m2` run participants (whose post-run states live in `used`).  The
/// three cases — both agents participated, initiator participated + fresh
/// responder, fresh initiator + participating responder — are decoded from
/// one bounded uniform over the conditional pair space.
///
/// `take_fresh(rank)` must withdraw and return the state of the fresh
/// (non-participant) agent with the given zero-based census rank;
/// `interact(u, v)` must apply δ to the withdrawn pair.  Both post-states
/// are re-added to `used` so the caller's re-deposit loop covers them.
template <class Codec, class Agent, class Key, class TakeFresh, class Interact>
void execute_colliding_interaction(rng& gen, std::uint64_t population, std::uint64_t m2,
                                   used_group_set<Agent, Key>& used, TakeFresh&& take_fresh,
                                   Interact&& interact) {
    const std::uint64_t fresh = population - m2;
    const std::uint64_t both_used = m2 * (m2 - 1);
    const std::uint64_t r = gen.next_below(both_used + 2 * m2 * fresh);
    Agent u;
    Agent v;
    if (r < both_used) {
        const std::uint64_t i = r / (m2 - 1);
        std::uint64_t j = r % (m2 - 1);
        if (j >= i) ++j;  // distinct-ordered-pair decode
        u = used.state_at(i);
        v = used.state_at(j);
        used.remove_one(Codec::encode(u));
        used.remove_one(Codec::encode(v));
    } else if (r < both_used + m2 * fresh) {
        const std::uint64_t q = r - both_used;
        u = used.state_at(q / fresh);
        used.remove_one(Codec::encode(u));
        v = take_fresh(q % fresh);
    } else {
        const std::uint64_t q = r - both_used - m2 * fresh;
        u = take_fresh(q % fresh);
        v = used.state_at(q / fresh);
        used.remove_one(Codec::encode(v));
    }
    interact(u, v);
    used.add(u, Codec::encode(u), 1);
    used.add(v, Codec::encode(v), 1);
}

/// Memoized per-pair outcome distributions plus the grouped sampler — the
/// backend side of the randomized-δ group path.
///
/// Enumerating a pair's outcomes costs a handful of δ evaluations
/// (sim/delta_outcomes.h walks the pair's choice tree), so distributions are
/// cached keyed by the pair's census keys: a protocol's hot pairs are
/// enumerated once per simulation, not once per run.  Outcomes that collapse
/// to the same (initiator-key, responder-key) are merged at insertion, so
/// the stored weight vectors are as short as possible for the multinomial.
template <class P, class Codec>
class delta_outcome_table {
public:
    using agent_t = typename P::agent_t;
    using key_t = typename Codec::key_t;

    struct entry {
        std::vector<delta_outcome<agent_t>> outcomes;  ///< merged by census key
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
        const pair_key key{Codec::encode(u), Codec::encode(v)};
        if (const auto it = cache_.find(key); it != cache_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        if (cache_.size() >= max_entries) cache_.clear();
        entry e;
        if (proto.delta_outcomes(u, v, scratch_)) {
            e.groupable = true;
            merge_keys_.clear();
            for (const auto& outcome : scratch_) {
                const pair_key out_key{Codec::encode(outcome.initiator),
                                       Codec::encode(outcome.responder)};
                bool merged = false;
                for (std::size_t i = 0; i < merge_keys_.size(); ++i) {
                    if (merge_keys_[i] == out_key) {
                        e.weights[i] += outcome.probability;
                        merged = true;
                        break;
                    }
                }
                if (!merged) {
                    merge_keys_.push_back(out_key);
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
    struct pair_key {
        key_t initiator;
        key_t responder;
        [[nodiscard]] bool operator==(const pair_key&) const = default;
    };

    struct pair_key_hash {
        [[nodiscard]] std::size_t operator()(const pair_key& key) const noexcept {
            const census_key_hash hash;
            return hash(key.initiator) * 0x9e3779b97f4a7c15ull + hash(key.responder);
        }
    };

    std::unordered_map<pair_key, entry, pair_key_hash> cache_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::vector<delta_outcome<agent_t>> scratch_;  ///< raw enumeration output
    std::vector<pair_key> merge_keys_;             ///< post-state keys during merge
    std::vector<std::uint64_t> split_;             ///< multinomial output
};

}  // namespace detail

}  // namespace plurality::sim
