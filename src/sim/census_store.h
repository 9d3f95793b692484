// The census format both census-space backends share.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so a configuration is fully described by its census: how many agents
// occupy each state.  `census_store` holds that census once for the
// per-step backend (sim/census_simulator.h) and the pair-type leaping
// backend (sim/leap_census_simulator.h): one slot per state ever reached, in
// discovery order, a key→slot index, the occupied count with its high-water
// mark, the population, a Fenwick tree over the occupied slots' counts, and
// the weighted read API the scenario predicates are written against.  The
// tree is indexed by positions that slots hold only while occupied, so it
// spans the most states ever occupied at once rather than every state ever
// reached.  Every mass move goes through `add_to` / `remove_from`, which
// keep the tree in sync, so the one-interaction step (`step_interaction`:
// two independent Fenwick descents, δ, and a move for each agent δ changed)
// exists once and both backends run it — census for every interaction, leap
// whenever its per-run cost model prefers stepping to the contingency
// table.  Leap keeps its occupied-slot list on top.  Both backends inherit
// the store publicly; a predicate written against the store runs on either.
//
// States are identified by a `census_codec`: an injective encoding of the
// agent state into a hashable key (see census_codec below).  New states
// discovered by δ are added on the fly, so no global state-space enumeration
// is ever required — S is whatever the run actually reaches.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
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
        std::uint32_t position = 0;  ///< tree position while occupied
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
    /// before (it just became occupied and took a tree position).
    bool add_to(std::size_t index, std::uint64_t count) {
        slot& entry = slots_[index];
        const bool was_empty = entry.count == 0;
        if (was_empty) {
            entry.position = take_position(index);
            ++occupied_;
            if (occupied_ > occupied_hwm_) occupied_hwm_ = occupied_;
        }
        entry.count += count;
        tree_add(entry.position, static_cast<std::int64_t>(count));
        return was_empty;
    }

    /// Removes `count` > 0 agents from slot `index` (at most its count); a
    /// slot that empties gives its tree position back.
    void remove_from(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        entry.count -= count;
        tree_add(entry.position, -static_cast<std::int64_t>(count));
        if (entry.count == 0) {
            --occupied_;
            free_positions_.push_back(entry.position);  // capacity reserved by grow_tree
        }
    }

    /// Executes one interaction of the uniform pairwise scheduler: samples
    /// an ordered pair of distinct agents by state (`pair_at`: initiator
    /// first, then responder among the other n-1), applies δ to copies of
    /// the two states, and moves only the agents δ changed.  Consumes two
    /// bounded uniforms plus whatever δ draws.  `on_occupied(index)` sees
    /// every slot a deposit turns from empty to occupied.
    ///
    /// Most interactions are no-ops once the dynamics settle (epidemic
    /// pairs, a converged tail, a tournament agent waiting for its phase),
    /// so an agent whose post-δ state is byte-equal to its slot's state
    /// stays where it is: no tree update, no encode, no hash probe.  A
    /// padding-only difference merely costs a redundant move back into the
    /// same slot.  The changed agents are all withdrawn before any is
    /// deposited: the high-water mark only rises on a deposit, and once the
    /// withdrawals are done each deposit moves the occupied count toward its
    /// end-of-step value, so `occupied_hwm_` ends exactly where it would had
    /// both agents left and re-entered the census (depositing one agent
    /// before withdrawing the other could overshoot by one).
    template <class Protocol, class OnOccupied>
    void step_interaction(Protocol& protocol, rng& gen, OnOccupied&& on_occupied) {
        static_assert(std::is_trivially_copyable_v<agent_t>,
                      "step_interaction compares agent states bytewise");
        const std::uint64_t first = gen.next_below(population_);
        const std::uint64_t second = gen.next_below(population_ - 1);
        const auto [initiator, responder] = pair_at(first, second);
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol.interact(u, v, gen);
        const bool u_moved = std::memcmp(&u, &slots_[initiator].state, sizeof(agent_t)) != 0;
        const bool v_moved = std::memcmp(&v, &slots_[responder].state, sizeof(agent_t)) != 0;
        if (u_moved) remove_from(initiator, 1);
        if (v_moved) remove_from(responder, 1);
        if (u_moved) deposit(u, on_occupied);
        if (v_moved) deposit(v, on_occupied);
    }

    /// Slots of the ordered agent pair (initiator, responder) that the two
    /// uniforms `first` < n and `second` < n-1 select: the initiator is the
    /// agent of rank `first`, the responder the agent of rank `second` among
    /// the other n-1 — rank `second + (second >= first)` over all n, so both
    /// descents read the same tree and neither waits for the other.
    [[nodiscard]] std::pair<std::size_t, std::size_t> pair_at(std::uint64_t first,
                                                              std::uint64_t second) const noexcept {
        return {locate(first), locate(second + (second >= first))};
    }

    /// Slot containing the agent with zero-based rank `rank` in cumulative
    /// count order over tree positions: the slot at the largest position p
    /// with sum(counts at positions [0, p)) <= rank.  Requires `rank` < Σ
    /// slot counts.
    ///
    /// Branchless descent.  `capacity_` is a power of two, so `tree_` is a
    /// perfect binary heap over [1, capacity_]: the root `tree_[capacity_]`
    /// holds every counted agent, which no valid rank can reach, so the walk
    /// starts one level down — and from there `position` is always a
    /// multiple of 2·step, so `position + step <= capacity_` holds without a
    /// bounds check.  The take/skip decision is a ~50/50 coin on a random
    /// rank at every level, the worst case for a branch predictor, so it is
    /// applied through an all-ones/all-zeros mask: written as a ternary,
    /// GCC keeps a data-dependent jump at every level but the last.
    [[nodiscard]] std::size_t locate(std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        const std::uint64_t* const tree = tree_.data();
        for (std::size_t step = capacity_ >> 1; step > 0; step >>= 1) {
            const std::uint64_t node = tree[position + step];
            const std::uint64_t take = -static_cast<std::uint64_t>(node <= remaining);
            position += step & take;
            remaining -= node & take;
        }
        return slot_at_[position];
    }

    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::size_t occupied_ = 0;       ///< slots with count > 0
    std::size_t occupied_hwm_ = 0;   ///< max of occupied_ so far
    std::uint64_t population_ = 0;   ///< invariant: Σ slot counts (+ agents in flight)
    /// Fenwick tree (1-based) over the counts at tree *positions*, not
    /// slots: a slot takes a free position when it becomes occupied and
    /// gives it back when it empties, so the tree spans the most states ever
    /// occupied at once — not every state ever reached, which for the
    /// tournament protocols is an order of magnitude more — and a descent
    /// walks log₂ of that many levels.
    std::vector<std::uint64_t> tree_;
    std::size_t capacity_ = 0;  ///< bit_ceil(positions ever in use)
    std::vector<std::uint32_t> slot_at_;  ///< position -> slot (stale while the position is free)
    std::vector<std::uint32_t> free_positions_;  ///< positions of emptied slots, reused LIFO

private:
    /// Adds one agent in `state` to its slot, creating the slot on first
    /// sight.
    template <class OnOccupied>
    void deposit(const agent_t& state, OnOccupied& on_occupied) {
        const std::size_t index = slot_for(state, Codec::encode(state));
        if (add_to(index, 1)) on_occupied(index);
    }

    /// A tree position for slot `index`, which is becoming occupied: the
    /// most recently freed one, else a fresh one (doubling the tree when the
    /// fresh position is past its capacity).
    std::uint32_t take_position(std::size_t index) {
        std::uint32_t position = 0;
        if (!free_positions_.empty()) {
            position = free_positions_.back();
            free_positions_.pop_back();
            slot_at_[position] = static_cast<std::uint32_t>(index);
        } else {
            position = static_cast<std::uint32_t>(slot_at_.size());
            if (position == capacity_) grow_tree(std::bit_ceil(capacity_ + 1));
            slot_at_.push_back(static_cast<std::uint32_t>(index));
        }
        return position;
    }

    /// Rebuilds the tree at `capacity` (a power of two) from the occupied
    /// slots' counts, and sizes both position arrays to match, so neither
    /// reallocates until the next rebuild.
    void grow_tree(std::size_t capacity) {
        capacity_ = capacity;
        tree_.assign(capacity_ + 1, 0);
        slot_at_.reserve(capacity_);
        free_positions_.reserve(capacity_);
        for (const slot& entry : slots_) {
            if (entry.count > 0) tree_add(entry.position, static_cast<std::int64_t>(entry.count));
        }
    }

    void tree_add(std::size_t position, std::int64_t delta) noexcept {
        for (std::size_t i = position + 1; i <= capacity_; i += i & (~i + 1)) {
            tree_[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree_[i]) + delta);
        }
    }
};

}  // namespace plurality::sim
