// The census format of the census backend.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so a configuration is fully described by its census: how many agents
// occupy each state.  This header defines what a census state is and how one
// is written down; sim::census_simulator (sim/census_simulator.h) keeps the
// census.
//
// A state is identified by its bytes: the agent type must be a
// `census_agent` (trivially copyable, no padding), and two agents are the
// same census state exactly when their object representations are equal
// (`same_state`, hashed by `state_hash`; `state_index` finds a state among
// records by them).  An initial configuration is a list of `census_entry`
// (`compress_to_census` builds one from an agent vector, `expand_census`
// lays one out as shuffled agents for the agent backend), and a protocol
// may partition its states into activity classes
// (`declares_activity_classes`), which the interaction loop uses to skip the
// pairs that cannot change anything.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace plurality::sim {

/// An agent type the census can identify by its bytes: trivially copyable
/// and free of padding, so equal object representations mean equal fields
/// and nothing else.  Every census-space comparison of states — slot
/// lookup, "did δ move this agent", grouping a run's post-states, keying δ's
/// outcome table — is `same_state`, so a field can never be left out of the
/// state's identity.  A struct with padding fails here: widen or reorder
/// its fields until none is left (docs/ADDING_A_SCENARIO.md, step 2).
template <class Agent>
concept census_agent =
    std::is_trivially_copyable_v<Agent> && std::has_unique_object_representations_v<Agent>;

/// True when `a` and `b` are the same census state: byte-equal.
template <census_agent Agent>
[[nodiscard]] bool same_state(const Agent& a, const Agent& b) noexcept {
    return std::memcmp(&a, &b, sizeof(Agent)) == 0;
}

/// Hash of a census state's bytes, taken as 64-bit words (the last one
/// zero-extended when the size is not a multiple of 8), each folded in
/// through splitmix64.
template <census_agent Agent>
[[nodiscard]] std::size_t state_hash(const Agent& state) noexcept {
    const auto* const bytes = reinterpret_cast<const unsigned char*>(&state);
    std::uint64_t mix = 0x9e3779b97f4a7c15ull;
    std::uint64_t hash = 0;
    for (std::size_t offset = 0; offset < sizeof(Agent); offset += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + offset, std::min<std::size_t>(8, sizeof(Agent) - offset));
        mix ^= word;
        hash ^= splitmix64_next(mix);
    }
    return static_cast<std::size_t>(hash);
}

/// Positions into a vector of records that each hold a `state`, looked up by
/// state: the hash and the equality read the records in place (C++20
/// heterogeneous lookup), so the index holds 4-byte positions rather than
/// copies of the states.  It points at the vector, so it can be neither
/// copied nor moved, and its owner neither.
template <class Record>
class state_index {
    using state_t = decltype(Record::state);

    /// Hash and equality over positions and states alike.
    struct by_state {
        using is_transparent = void;
        const std::vector<Record>* records;

        const state_t& at(std::uint32_t position) const { return (*records)[position].state; }
        const state_t& at(const state_t& state) const { return state; }
        std::size_t operator()(const auto& x) const noexcept { return state_hash(at(x)); }
        bool operator()(const auto& x, const auto& y) const noexcept {
            return same_state(at(x), at(y));
        }
    };

public:
    static constexpr std::uint32_t absent = 0xffffffffu;

    explicit state_index(const std::vector<Record>& records)
        : index_(0, by_state{&records}, by_state{&records}) {}
    state_index(const state_index&) = delete;
    state_index& operator=(const state_index&) = delete;

    /// Position of the record holding `state`, or `absent`.
    [[nodiscard]] std::uint32_t find(const state_t& state) const {
        const auto it = index_.find(state);
        return it == index_.end() ? absent : *it;
    }

    /// Indexes the record at `position`, already in the vector, whose state
    /// is not indexed yet.
    void insert(std::size_t position) { index_.insert(static_cast<std::uint32_t>(position)); }

    void reserve(std::size_t count) { index_.reserve(count); }
    void clear() noexcept { index_.clear(); }
    [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

private:
    std::unordered_set<std::uint32_t, by_state, by_state> index_;
};

/// One census slot of an initial configuration: `count` agents all holding
/// `state`.  Entries with equal states are merged; zero counts are ignored.
template <class Agent>
struct census_entry {
    Agent state{};
    std::uint64_t count = 0;
};

/// Compresses a full agent vector into its census, merging equal states in
/// first-seen order.  Shared by the census backend's agent-vector
/// convenience constructors; large-n callers should build entries directly.
template <census_agent Agent>
[[nodiscard]] std::vector<census_entry<Agent>> compress_to_census(
    const std::vector<Agent>& agents) {
    std::vector<census_entry<Agent>> entries;
    state_index<census_entry<Agent>> seen(entries);
    for (const auto& agent : agents) {
        std::uint32_t at = seen.find(agent);
        if (at == seen.absent) {
            at = static_cast<std::uint32_t>(entries.size());
            entries.push_back({agent, 0});
            seen.insert(at);
        }
        ++entries[at].count;
    }
    return entries;
}

/// Expands a census into one agent per unit of count: the entries' states
/// laid out in entry order, then shuffled by one Fisher–Yates pass over
/// 4-byte entry indices (n − 1 bounded uniforms from `gen`, zero-count
/// entries adding no agents), so an agent's position never encodes its
/// state.  This is how the agent backend builds the initial configuration
/// the census backend deposits directly.
template <census_agent Agent>
[[nodiscard]] std::vector<Agent> expand_census(const std::vector<census_entry<Agent>>& entries,
                                               rng& gen) {
    std::uint64_t total = 0;
    for (const auto& entry : entries) total += entry.count;
    // The agents first: an allocation that fails does so before any work.
    std::vector<Agent> agents;
    agents.reserve(total);
    std::vector<std::uint32_t> order;
    order.reserve(total);
    for (std::uint32_t i = 0; i < entries.size(); ++i)
        order.insert(order.end(), entries[i].count, i);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[gen.next_below(i)]);
    for (const std::uint32_t i : order) agents.push_back(entries[i].state);
    return agents;
}

/// Optional protocol hook: activity classes.  A protocol that declares
///
///     std::uint32_t activity_classes() const;              // C
///     std::uint32_t activity_class(const agent_t&) const;  // in [0, C)
///     bool may_act(std::uint32_t c, std::uint32_t d) const;
///
/// partitions its states into C classes and names the ordered class pairs
/// whose interactions may change anything.  Soundness obligation:
/// `may_act(c, d)` may be false only if δ(u, v) leaves both agents unchanged
/// with probability 1 for *every* initiator u in class c and every responder
/// v in class d.  The census backend skips the interactions of such
/// pairs without calling δ (census_simulator::advance); a false "false" would
/// silently freeze dynamics, which is why tests/test_activity_classes.cpp
/// checks the tournament's declaration against δ itself.  A protocol without
/// the hook is one class in which every pair may act.
template <class P>
concept declares_activity_classes =
    requires(const P p, const typename P::agent_t& a, std::uint32_t c) {
        { p.activity_classes() } -> std::convertible_to<std::uint32_t>;
        { p.activity_class(a) } -> std::convertible_to<std::uint32_t>;
        { p.may_act(c, c) } -> std::convertible_to<bool>;
    };

}  // namespace plurality::sim
