// The census format both census-space backends share.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so a configuration is fully described by its census: how many agents
// occupy each state.  `census_store` holds that census once for the
// per-step backend (sim/census_simulator.h) and the pair-type leaping
// backend (sim/leap_census_simulator.h): one slot per state ever reached, in
// discovery order, a key→slot index, the occupied count with its high-water
// mark, the population, and the weighted read API the scenario predicates
// are written against.  Each backend keeps its own sampling structure on top
// — the Fenwick tree in census, the occupied list in leap — so the store
// never needs to know which backend it serves.  Both backends inherit it
// publicly; a predicate written against the store runs on either.
//
// States are identified by a `census_codec`: an injective encoding of the
// agent state into a hashable key (see census_codec below).  New states
// discovered by δ are added on the fly, so no global state-space enumeration
// is ever required — S is whatever the run actually reaches.
#pragma once

#include <array>
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
    /// slot on first sight — a backend spots a new slot by its index being
    /// the previous `slots_.size()`.
    std::size_t slot_for(const agent_t& state, const key_t& key) {
        const auto [it, inserted] =
            index_.try_emplace(key, static_cast<std::uint32_t>(slots_.size()));
        if (inserted) slots_.push_back({state, key, 0});
        return it->second;
    }

    /// Adds `count` > 0 agents to slot `index`; true when the slot was empty
    /// before (it just became occupied).
    bool add_to(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        const bool was_empty = entry.count == 0;
        entry.count += count;
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
        if (entry.count == 0) --occupied_;
    }

    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::size_t occupied_ = 0;       ///< slots with count > 0
    std::size_t occupied_hwm_ = 0;   ///< max of occupied_ so far
    std::uint64_t population_ = 0;   ///< invariant: Σ slot counts (+ agents in flight)
};

}  // namespace plurality::sim
