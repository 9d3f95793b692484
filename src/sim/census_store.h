// The census format both census-space backends share.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so a configuration is fully described by its census: how many agents
// occupy each state.  `census_store` holds that census once for the
// per-step backend (sim/census_simulator.h) and the pair-type leaping
// backend (sim/leap_census_simulator.h): one slot per state ever reached, in
// discovery order, a key→slot index, the occupied count with its high-water
// mark, the population, a Fenwick tree over the slot counts, and the
// weighted read API the scenario predicates are written against.  Every mass
// move goes through `add_to` / `remove_from`, which keep the tree in sync,
// so the one-interaction step (`step_interaction`: two Fenwick descents, δ,
// two re-deposits) exists once and both backends run it — census for every
// interaction, leap whenever its per-run cost model prefers stepping to the
// contingency table.  Leap keeps its occupied-slot list on top.  Both
// backends inherit the store publicly; a predicate written against the store
// runs on either.
//
// States are identified by a `census_codec`: an injective encoding of the
// agent state into a hashable key (see census_codec below).  New states
// discovered by δ are added on the fly, so no global state-space enumeration
// is ever required — S is whatever the run actually reaches.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"

namespace plurality::sim {

/// An injective encoding of a protocol's agent state into a compact,
/// hashable key.  Two agents with equal keys MUST behave identically in
/// every interaction (the census merges them), so `encode` has to cover
/// every field the transition function reads or writes.  Keys are
/// `std::uint64_t` for small protocols or `std::array<std::uint64_t, N>`
/// when one word is not enough (see core::core_census_codec).
template <class C, class Agent>
concept census_codec = std::copy_constructible<Agent> && requires(const Agent& a) {
    typename C::key_t;
    { C::encode(a) } -> std::same_as<typename C::key_t>;
};

/// Hash functor for census keys (splitmix64-mixed; the raw keys are often
/// small dense integers, which std::hash passes through unmixed).
struct census_key_hash {
    [[nodiscard]] std::size_t operator()(std::uint64_t key) const noexcept {
        std::uint64_t state = key;
        return static_cast<std::size_t>(splitmix64_next(state));
    }
    template <std::size_t N>
    [[nodiscard]] std::size_t operator()(const std::array<std::uint64_t, N>& key) const noexcept {
        std::uint64_t state = 0x9e3779b97f4a7c15ull;
        std::uint64_t hash = 0;
        for (const std::uint64_t word : key) {
            state ^= word;
            hash ^= splitmix64_next(state);
        }
        return static_cast<std::size_t>(hash);
    }
};

/// One census slot of an initial configuration: `count` agents all holding
/// `state`.  Entries with equal encodings are merged; zero counts are
/// ignored.
template <class Agent>
struct census_entry {
    Agent state{};
    std::uint64_t count = 0;
};

/// Compresses a full agent vector into its census under `Codec`, merging
/// equal-key agents.  Shared by both census-space backends' agent-vector
/// convenience constructors; large-n callers should build entries directly.
template <class Codec, class Agent>
    requires census_codec<Codec, Agent>
[[nodiscard]] std::vector<census_entry<Agent>> compress_to_census(
    const std::vector<Agent>& agents) {
    std::vector<census_entry<Agent>> entries;
    std::unordered_map<typename Codec::key_t, std::size_t, census_key_hash> seen;
    for (const auto& agent : agents) {
        const auto [it, inserted] = seen.try_emplace(Codec::encode(agent), entries.size());
        if (inserted) entries.push_back({agent, 0});
        ++entries[it->second].count;
    }
    return entries;
}

/// The census of one population.  The read API is public; moving mass is
/// reserved to the backends that inherit the store.
template <class Agent, census_codec<Agent> Codec>
class census_store {
public:
    using agent_t = Agent;
    using key_t = typename Codec::key_t;
    using entry_t = census_entry<Agent>;

    /// Visits every *occupied* state as `(state, count)` in a deterministic
    /// (state-discovery) order; stops early when `fn` returns false.  The
    /// read API shared with `simulation::visit_states` — predicates written
    /// against it (sim/population_view.h) run on every backend.
    template <class Fn>
    void visit_states(Fn&& fn) const {
        for (const auto& slot : slots_) {
            if (slot.count > 0 && !fn(slot.state, slot.count)) return;
        }
    }

    [[nodiscard]] std::size_t population_size() const noexcept {
        return static_cast<std::size_t>(population_);
    }

    /// Number of currently occupied states (the S that memory scales with).
    /// Maintained incrementally — an O(1) read, not an O(S) scan.
    [[nodiscard]] std::size_t occupied_states() const noexcept { return occupied_; }

    /// Largest number of simultaneously occupied states so far.
    [[nodiscard]] std::size_t occupied_states_hwm() const noexcept { return occupied_hwm_; }

    /// Number of states seen at any point of the run (dormant slots are kept
    /// so revisited states reuse their slot).
    [[nodiscard]] std::size_t reachable_states() const noexcept { return slots_.size(); }

    /// Count of agents currently in the given state (0 if never reached).
    [[nodiscard]] std::uint64_t count_of(const agent_t& state) const {
        const auto it = index_.find(Codec::encode(state));
        return it == index_.end() ? 0 : slots_[it->second].count;
    }

protected:
    struct slot {
        agent_t state;
        key_t key{};  ///< Codec::encode(state), cached for key compares
        std::uint64_t count = 0;
    };

    /// Deposits the initial census, one slot per distinct key in entry
    /// order.  Requires a total population of at least two agents;
    /// `backend` names the caller in the error.
    census_store(const std::vector<entry_t>& initial, const char* backend) {
        for (const auto& entry : initial) population_ += entry.count;
        if (population_ < 2)
            throw std::invalid_argument(std::string(backend) +
                                        " requires a population of n >= 2");
        // The initial census bounds the states seen so far; reserving up
        // front cuts rehash churn on the discovery path.
        index_.reserve(initial.size());
        slots_.reserve(initial.size());
        for (const auto& entry : initial) {
            if (entry.count > 0) add_to(slot_for(entry.state, Codec::encode(entry.state)), entry.count);
        }
    }

    /// Index of the slot holding `state` (encoded `key`), appending an empty
    /// slot on first sight (and, past the tree capacity, doubling the tree)
    /// — a backend spots a new slot by its index being the previous
    /// `slots_.size()`.
    std::size_t slot_for(const agent_t& state, const key_t& key) {
        const auto [it, inserted] =
            index_.try_emplace(key, static_cast<std::uint32_t>(slots_.size()));
        if (inserted) {
            slots_.push_back({state, key, 0});
            if (slots_.size() > capacity_)
                grow_tree(std::max<std::size_t>(64, std::bit_ceil(slots_.size())));
        }
        return it->second;
    }

    /// Adds `count` > 0 agents to slot `index`; true when the slot was empty
    /// before (it just became occupied).
    bool add_to(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        const bool was_empty = entry.count == 0;
        entry.count += count;
        tree_add(index, static_cast<std::int64_t>(count));
        if (was_empty) {
            ++occupied_;
            if (occupied_ > occupied_hwm_) occupied_hwm_ = occupied_;
        }
        return was_empty;
    }

    /// Removes `count` > 0 agents from slot `index` (at most its count).
    void remove_from(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        entry.count -= count;
        tree_add(index, -static_cast<std::int64_t>(count));
        if (entry.count == 0) --occupied_;
    }

    /// Executes one interaction of the uniform pairwise scheduler: samples
    /// an ordered pair of distinct agents by state (initiator first, then
    /// responder among the remaining n-1) with two Fenwick descents, applies
    /// δ to copies of the two states, and re-deposits the resulting states.
    /// Consumes two bounded uniforms plus whatever δ draws.
    /// `on_occupied(index)` sees every slot a re-deposit turns from empty to
    /// occupied.
    ///
    /// Unchanged states (the common case once the dynamics settle — most
    /// epidemic or converged-tail pairs are no-ops) skip the key->slot hash
    /// probe: their post-state key matches the slot they were just withdrawn
    /// from, so the mass goes straight back by index.
    template <class Protocol, class OnOccupied>
    void step_interaction(Protocol& protocol, rng& gen, OnOccupied&& on_occupied) {
        const std::size_t initiator = locate(gen.next_below(population_));
        remove_from(initiator, 1);
        const std::size_t responder = locate(gen.next_below(population_ - 1));
        remove_from(responder, 1);
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol.interact(u, v, gen);
        redeposit(u, initiator, on_occupied);
        redeposit(v, responder, on_occupied);
    }

    /// Slot containing the agent with zero-based rank `rank` in cumulative
    /// count order: the largest prefix p with sum(slots[0..p)) <= rank.
    /// Requires `rank` < Σ slot counts.
    ///
    /// Branchless descent.  `capacity_` is a power of two, so `tree_` is a
    /// perfect binary heap over [1, capacity_]: the root `tree_[capacity_]`
    /// holds every counted agent, which no valid rank can reach, so the walk
    /// starts one level down — and from there `position` is always a
    /// multiple of 2·step, so `position + step <= capacity_` holds without a
    /// bounds check.  The take/skip decision is data-dependent on a random
    /// rank (a ~50/50 coin at every level — the worst case for a branch
    /// predictor), so both updates are written as ternaries for the compiler
    /// to lower to conditional moves, and the two possible children of the
    /// next level are prefetched while the current comparison resolves.
    [[nodiscard]] std::size_t locate(std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        const std::uint64_t* const tree = tree_.data();
        for (std::size_t step = capacity_ >> 1; step > 0; step >>= 1) {
            const std::size_t next = position + step;
            const std::uint64_t node = tree[next];
#if defined(__GNUC__) || defined(__clang__)
            if (step > 1) {
                __builtin_prefetch(&tree[position + (step >> 1)]);
                __builtin_prefetch(&tree[next + (step >> 1)]);
            }
#endif
            const bool take = node <= remaining;
            position = take ? next : position;
            remaining = take ? remaining - node : remaining;
        }
        return position;
    }

    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::size_t occupied_ = 0;       ///< slots with count > 0
    std::size_t occupied_hwm_ = 0;   ///< max of occupied_ so far
    std::uint64_t population_ = 0;   ///< invariant: Σ slot counts (+ agents in flight)
    std::vector<std::uint64_t> tree_;  ///< Fenwick tree over slot counts (1-based)
    std::size_t capacity_ = 0;         ///< tree capacity (power of two, >= slots_.size())

private:
    /// Returns one agent in `state` that was just withdrawn from slot
    /// `origin`: when the interaction left the state unchanged the mass goes
    /// straight back by index, bypassing the hash map.
    template <class OnOccupied>
    void redeposit(const agent_t& state, std::size_t origin, OnOccupied& on_occupied) {
        const key_t key = Codec::encode(state);
        const std::size_t index = key == slots_[origin].key ? origin : slot_for(state, key);
        if (add_to(index, 1)) on_occupied(index);
    }

    /// Rebuilds the tree at `capacity` (a power of two) from the slot counts.
    void grow_tree(std::size_t capacity) {
        capacity_ = capacity;
        tree_.assign(capacity_ + 1, 0);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            tree_add(i, static_cast<std::int64_t>(slots_[i].count));
    }

    void tree_add(std::size_t index, std::int64_t delta) noexcept {
        for (std::size_t i = index + 1; i <= capacity_; i += i & (~i + 1)) {
            tree_[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree_[i]) + delta);
        }
    }
};

}  // namespace plurality::sim
