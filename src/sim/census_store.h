// The census format both census-space backends share.
//
// Population protocols are agent-anonymous — an interaction's outcome
// depends only on the two participants' states, never on their identities —
// so a configuration is fully described by its census: how many agents
// occupy each state.  `census_store` holds that census once for the
// per-step backend (sim/census_simulator.h) and the pair-type leaping
// backend (sim/leap_census_simulator.h), together with the protocol
// instance: one slot per state ever reached, in discovery order, a
// key→slot index, the occupied count with its high-water mark, the
// population, the weighted read API the scenario predicates are written
// against, and the sampling structure of the interaction loop.
//
// That structure is partitioned by *activity class* (the optional protocol
// hook `declares_activity_classes` below): every slot belongs to the class
// of its state, each class keeps its own Fenwick tree over its occupied
// slots' counts, indexed by positions a slot holds only while occupied, and
// the store keeps the class counts N_c and the may-act weight
// W = Σ N_c·(N_d − [c = d]) over the class pairs the protocol declares
// may-act.  Every mass move goes through `add_to` / `remove_from`, which
// keep trees, counts and W in sync, so the interaction loop (`advance`)
// exists once and both backends run it — census for every interaction, leap
// whenever its per-run cost model prefers stepping to the contingency
// table.  `advance` skips the interactions that fall in inactive class
// pairs with one geometric draw and executes only the others (see
// "Activity classes" in docs/ARCHITECTURE.md for the exactness argument); a
// protocol without the hook is one class in which every pair may act, so
// nothing is ever skipped.  Leap keeps its occupied-slot list on top.  Both
// backends inherit the store publicly; a predicate written against the
// store runs on either.
//
// States are identified by a `census_codec`: an injective encoding of the
// agent state into a hashable key (see census_codec below).  New states
// discovered by δ are added on the fly, so no global state-space enumeration
// is ever required — S is whatever the run actually reaches.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

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
/// v in class d.  The census-space backends skip the interactions of such
/// pairs without calling δ (census_store::advance); a false "false" would
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

/// The census of one population, together with the protocol instance that
/// moves it.  The read API is public; moving mass is reserved to the
/// backends that inherit the store.
template <protocol P, census_codec<typename P::agent_t> Codec>
class census_store {
public:
    using agent_t = typename P::agent_t;
    using key_t = typename Codec::key_t;
    using entry_t = census_entry<agent_t>;

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

    /// W / n(n−1): the share of ordered agent pairs that fall in may-act
    /// class pairs, i.e. the probability that the next interaction calls δ.
    /// Always 1 for a protocol without activity classes.
    [[nodiscard]] double executed_share() const noexcept {
        return static_cast<double>(weight_) / static_cast<double>(pairs_);
    }

protected:
    struct slot {
        agent_t state;
        key_t key{};  ///< Codec::encode(state), cached for key compares
        std::uint64_t count = 0;
        std::uint32_t cls = 0;       ///< activity class of `state` (0 without the hook)
        std::uint32_t position = 0;  ///< position in its class's tree while occupied
    };

    /// One activity class: its agent count, its row weight and a Fenwick
    /// tree (1-based) over the counts at tree *positions*, not slots — a
    /// slot takes a free position of its class's tree when it becomes
    /// occupied and gives it back when it empties, so each tree spans the
    /// most states of its class ever occupied at once, not every state ever
    /// reached (for the tournament protocols an order of magnitude more),
    /// and a descent walks log₂ of that many levels.
    struct class_tree {
        std::vector<std::uint64_t> tree;
        std::size_t capacity = 0;                 ///< power of two (0 before first use)
        std::vector<std::uint32_t> slot_at;       ///< position -> slot (stale while free)
        std::vector<std::uint32_t> free_positions;  ///< emptied positions, reused LIFO
        std::uint64_t count = 0;  ///< N_c: agents in the class
        /// R_c = Σ N_d − [c = d] over the live classes d with may_act(c, d):
        /// the responders an initiator of this class may act with.
        std::uint64_t row = 0;
    };

    /// Takes the protocol instance and deposits the initial census, one slot
    /// per distinct key in entry order.  Requires a total population of
    /// 2 <= n < 2^32 (n(n−1) must fit in 64 bits); `backend` names the
    /// caller in the error.
    census_store(P proto, const std::vector<entry_t>& initial, const char* backend)
        : protocol_(std::move(proto)) {
        for (const auto& entry : initial) population_ += entry.count;
        if (population_ < 2 || population_ > 0xffffffffull)
            throw std::invalid_argument(std::string(backend) +
                                        " requires a population of 2 <= n <= 4294967295");
        pairs_ = population_ * (population_ - 1);
        std::uint32_t classes = 1;
        if constexpr (declares_activity_classes<P>) classes = protocol_.activity_classes();
        classes_.resize(classes);
        acts_.assign(std::size_t{classes} * classes, unknown_pair);
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
    /// the previous `slots_.size()`.  A new slot's activity class is fixed
    /// here, once: it is a function of the state.
    std::size_t slot_for(const agent_t& state, const key_t& key) {
        const auto [it, inserted] =
            index_.try_emplace(key, static_cast<std::uint32_t>(slots_.size()));
        if (inserted) {
            slots_.push_back({state, key, 0, class_of(state)});
            successor_.push_back(no_successor);
        }
        return it->second;
    }

    /// Adds `count` > 0 agents to slot `index`; true when the slot was empty
    /// before (it just became occupied and took a tree position).
    bool add_to(std::size_t index, std::uint64_t count) {
        const bool was_empty = deposit_mass(index, count);
        shift_class(slots_[index].cls, static_cast<std::int64_t>(count));
        return was_empty;
    }

    /// Removes `count` > 0 agents from slot `index` (at most its count); a
    /// slot that empties gives its tree position back.
    void remove_from(std::size_t index, std::uint64_t count) {
        withdraw_mass(index, count);
        shift_class(slots_[index].cls, -static_cast<std::int64_t>(count));
    }

    /// Advances the chain by exactly `count` interactions of the uniform
    /// pairwise scheduler and returns how many of them called δ.
    ///
    /// An interaction falls in a may-act class pair with probability
    /// p = W / n(n−1); every other interaction is the identity.  So rather
    /// than sampling each one, the loop draws the number of identities
    /// before the next executed interaction — Geometric(p), by inversion:
    /// ⌊ln U / ln(1 − p)⌋ for one uniform U on the 53-bit grid of (0, 1],
    /// where ln is exact to an ulp (1 − U is never formed, so nothing is
    /// rounded away near U = 1) — skips them, and executes one pair drawn
    /// uniformly over the may-act pairs (`execute`).  Nothing changes during
    /// a skip, so W holds for all of it.  A skip that would pass the budget
    /// stops at it, which the geometric law's memorylessness makes exact:
    /// the next call starts a fresh skip with the same law.  The skip is
    /// compared with the budget while still a double, so a tiny p cannot
    /// overflow the integer conversion, and with W = 0 nothing can ever act
    /// again and the rest of the budget passes in O(1).  When every pair may
    /// act (W = n(n−1); always, for a protocol without the hook) no skip is
    /// drawn.  `on_occupied(index)` sees every slot a deposit turns from
    /// empty to occupied.
    template <class OnOccupied>
    std::uint64_t advance(std::uint64_t count, rng& gen, OnOccupied&& on_occupied) {
        std::uint64_t executed = 0;
        while (count > 0 && weight_ > 0) {
            if (weight_ < pairs_) {
                const double unit = static_cast<double>((gen.next() >> 11) + 1) * 0x1.0p-53;
                const double skip = std::log(unit) * skip_scale();
                if (skip >= static_cast<double>(count)) break;
                count -= static_cast<std::uint64_t>(skip);
            }
            execute(gen, on_occupied);
            --count;
            ++executed;
        }
        return executed;
    }

    /// The initiator class that `rank` < W selects — the live classes in
    /// order, each a block of N_c·R_c ranks — and the rank's offset in that
    /// block.
    [[nodiscard]] std::pair<std::uint32_t, std::uint64_t> initiator_class_at(
        std::uint64_t rank) const noexcept {
        for (const std::uint32_t c : live_) {
            const std::uint64_t block = classes_[c].count * classes_[c].row;
            if (rank < block) return {c, rank};
            rank -= block;
        }
        return {live_.back(), rank};  // unreachable for rank < W
    }

    /// Slots of the executed pair whose initiator is the agent of rank `i` <
    /// N_c in class `c` and whose responder is agent `t` < R_c along c's
    /// row: the live classes d with may_act(c, d), in order, each
    /// contributing its N_d agents — less the initiator itself when d = c,
    /// whose rank is stepped over as in sim::sample_pair.  Both descents
    /// read their trees independently.
    [[nodiscard]] std::pair<std::size_t, std::size_t> pair_in_class(
        std::uint32_t c, std::uint64_t i, std::uint64_t t) const noexcept {
        std::uint32_t d = c;
        const std::int8_t* row = acts_.data() + std::size_t{c} * classes_.size();
        for (const std::uint32_t e : live_) {
            if (row[e] != 1) continue;  // live pairs are always memoized
            const std::uint64_t width = classes_[e].count - (e == c ? 1 : 0);
            if (t < width) {
                d = e;
                break;
            }
            t -= width;
        }
        if (d == c) t += t >= i ? 1 : 0;
        return {locate(classes_[c], i), locate(classes_[d], t)};
    }

    /// Slot containing the agent with zero-based rank `rank` in class
    /// `tree`'s cumulative count order over tree positions: the slot at the
    /// largest position p with sum(counts at positions [0, p)) <= rank.
    /// Requires `rank` < N_c.
    ///
    /// Branchless descent.  The capacity is a power of two, so the tree is a
    /// perfect binary heap over [1, capacity]: the root holds every counted
    /// agent, which no valid rank can reach, so the walk starts one level
    /// down — and from there `position` is always a multiple of 2·step, so
    /// `position + step <= capacity` holds without a bounds check.  The
    /// take/skip decision is a ~50/50 coin on a random rank at every level,
    /// the worst case for a branch predictor, so it is applied through an
    /// all-ones/all-zeros mask: written as a ternary, GCC keeps a
    /// data-dependent jump at every level but the last.
    [[nodiscard]] std::size_t locate(const class_tree& tree, std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        const std::uint64_t* const nodes = tree.tree.data();
        for (std::size_t step = tree.capacity >> 1; step > 0; step >>= 1) {
            const std::uint64_t node = nodes[position + step];
            const std::uint64_t take = -static_cast<std::uint64_t>(node <= remaining);
            position += step & take;
            remaining -= node & take;
        }
        return tree.slot_at[position];
    }

    P protocol_;
    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    std::vector<std::uint32_t> successor_;  ///< per slot: where its last changed agent went
    std::unordered_map<key_t, std::uint32_t, census_key_hash> index_;  ///< key -> slot
    std::size_t occupied_ = 0;       ///< slots with count > 0
    std::size_t occupied_hwm_ = 0;   ///< max of occupied_ so far
    std::uint64_t population_ = 0;   ///< invariant: Σ slot counts (+ agents in flight)
    std::uint64_t pairs_ = 0;        ///< n(n−1): ordered pairs of distinct agents
    std::vector<class_tree> classes_;  ///< one per activity class
    static constexpr std::uint32_t no_class = 0xffffffffu;
    std::vector<std::uint32_t> live_;  ///< classes with N_c > 0, in the order they turned live
    std::uint64_t weight_ = 0;         ///< W = Σ over live c of N_c·R_c
    std::uint32_t sole_ = no_class;    ///< the only live class, if just one

private:
    static constexpr std::int8_t unknown_pair = -1;
    static constexpr std::uint32_t no_successor = 0xffffffffu;
    static constexpr std::size_t reserved_positions = 64;

    /// Executes one interaction drawn uniformly over the ordered agent pairs
    /// in may-act class pairs: the initiator's class c with weight N_c·R_c
    /// (no draw while one class is live), then one bounded uniform over
    /// N_c·R_c, split by the scheduler's chained multiply
    /// (sim::sample_grid_cell) into the initiator's rank in c and the
    /// responder's index along c's row (`pair_in_class`).  δ runs on copies
    /// of the two states, and only the agents it changed move.
    ///
    /// Many executed interactions still change nothing (a tournament agent
    /// waiting for its partner's role, a converged tail), so an agent whose
    /// post-δ state is byte-equal to its slot's state stays where it is: no
    /// tree update, no encode, no hash probe.  A padding-only difference
    /// merely costs a redundant move back into the same slot.  The changed
    /// agents are all withdrawn before any is deposited: the high-water mark
    /// only rises on a deposit, and once the withdrawals are done each
    /// deposit moves the occupied count toward its end-of-step value, so
    /// `occupied_hwm_` ends exactly where it would had both agents left and
    /// re-entered the census (depositing one agent before withdrawing the
    /// other could overshoot by one).
    template <class OnOccupied>
    void execute(rng& gen, OnOccupied& on_occupied) {
        static_assert(std::is_trivially_copyable_v<agent_t>,
                      "execute compares agent states bytewise");
        std::size_t initiator = 0;
        std::size_t responder = 0;
        if (sole_ != no_class) {
            // One live class, holding all n agents, that may act with itself
            // (W > 0): the scheduler's own draw over n(n−1), and
            // pair_in_class's walk is a single step, taken inline.  Always
            // the case without activity classes.
            const grid_cell cell = sample_grid_cell(gen, population_, population_ - 1);
            const class_tree& only = classes_[sole_];
            initiator = locate(only, cell.row);
            responder = locate(only, cell.column + (cell.column >= cell.row ? 1 : 0));
        } else {
            const std::uint32_t c = initiator_class_at(gen.next_below(weight_)).first;
            const grid_cell cell = sample_grid_cell(gen, classes_[c].count, classes_[c].row);
            std::tie(initiator, responder) = pair_in_class(c, cell.row, cell.column);
        }
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol_.interact(u, v, gen);
        const bool u_moved = std::memcmp(&u, &slots_[initiator].state, sizeof(agent_t)) != 0;
        const bool v_moved = std::memcmp(&v, &slots_[responder].state, sizeof(agent_t)) != 0;
        if (u_moved) withdraw_mass(initiator, 1);
        if (v_moved) withdraw_mass(responder, 1);
        if (u_moved) deposit(initiator, u, on_occupied);
        if (v_moved) deposit(responder, v, on_occupied);
    }

    /// Adds one agent that left slot `origin` in `state` to its slot,
    /// creating the slot on first sight; the class counts move only when
    /// the agent changed class.  Agents leaving one slot mostly land in the
    /// same next one (a clock's count steps up, a player adopts a side), so
    /// a bytewise compare with the state of the slot the last agent from
    /// `origin` went to stands in for the encode and hash probe — ~90% of
    /// the time on the tournament — and picks the very slot the probe
    /// would.
    template <class OnOccupied>
    void deposit(std::size_t origin, const agent_t& state, OnOccupied& on_occupied) {
        std::size_t index = successor_[origin];
        if (index == no_successor ||
            std::memcmp(&slots_[index].state, &state, sizeof(agent_t)) != 0) {
            index = slot_for(state, Codec::encode(state));
            successor_[origin] = static_cast<std::uint32_t>(index);
        }
        if (deposit_mass(index, 1)) on_occupied(index);
        const std::uint32_t from = slots_[origin].cls;
        const std::uint32_t to = slots_[index].cls;
        if (from != to) {
            shift_class(from, -1);
            shift_class(to, 1);
        }
    }

    [[nodiscard]] std::uint32_t class_of(const agent_t& state) const {
        if constexpr (declares_activity_classes<P>) {
            const std::uint32_t c = protocol_.activity_class(state);
            if (c >= classes_.size())
                throw std::logic_error("activity_class returned a class >= activity_classes()");
            return c;
        } else {
            return 0;
        }
    }

    /// may_act(c, d), memoized lazily per class pair: only pairs of classes
    /// that are live together are ever asked, so a run pays for the few it
    /// meets rather than for all C² up front.
    bool acts(std::uint32_t c, std::uint32_t d) {
        std::int8_t& known = acts_[std::size_t{c} * classes_.size() + d];
        if (known == unknown_pair) {
            bool may = true;
            if constexpr (declares_activity_classes<P>) may = protocol_.may_act(c, d);
            known = may ? 1 : 0;
        }
        return known == 1;
    }

    /// Moves class c's count by `delta` and keeps the live list (and
    /// `sole_`), every live class's row and W current — O(live classes),
    /// paid only when an agent changes class or leap moves mass.  A class
    /// turning live computes its row in full; a class going empty
    /// leaves the live list and gets a fresh row when it returns.
    void shift_class(std::uint32_t c, std::int64_t delta) {
        class_tree& moved = classes_[c];
        const bool was_live = moved.count > 0;
        moved.count += static_cast<std::uint64_t>(delta);
        if (!was_live) {
            live_.push_back(c);
            std::uint64_t row = 0;
            for (const std::uint32_t d : live_) {
                if (acts(c, d)) row += classes_[d].count - (d == c ? 1 : 0);
            }
            moved.row = row;
        } else if (moved.count == 0) {
            live_.erase(std::find(live_.begin(), live_.end(), c));
        }
        sole_ = live_.size() == 1 ? live_[0] : no_class;
        std::uint64_t weight = 0;
        for (const std::uint32_t e : live_) {
            class_tree& other = classes_[e];
            if ((e != c || was_live) && acts(e, c)) other.row += static_cast<std::uint64_t>(delta);
            weight += other.count * other.row;
        }
        weight_ = weight;
    }

    /// 1 / ln(1 − p) for the current W, recomputed only when W moved since
    /// the last skip.
    [[nodiscard]] double skip_scale() noexcept {
        if (scaled_weight_ != weight_) {
            scaled_weight_ = weight_;
            skip_scale_ = 1.0 / std::log1p(-executed_share());
        }
        return skip_scale_;
    }

    /// Slot-level half of `add_to`: count, tree and occupancy, no class
    /// bookkeeping.
    bool deposit_mass(std::size_t index, std::uint64_t count) {
        slot& entry = slots_[index];
        class_tree& tree = classes_[entry.cls];
        const bool was_empty = entry.count == 0;
        if (was_empty) {
            entry.position = take_position(tree, index);
            ++occupied_;
            if (occupied_ > occupied_hwm_) occupied_hwm_ = occupied_;
        }
        entry.count += count;
        tree_add(tree, entry.position, static_cast<std::int64_t>(count));
        return was_empty;
    }

    /// Slot-level half of `remove_from`.
    void withdraw_mass(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        class_tree& tree = classes_[entry.cls];
        entry.count -= count;
        tree_add(tree, entry.position, -static_cast<std::int64_t>(count));
        if (entry.count == 0) {
            --occupied_;
            tree.free_positions.push_back(entry.position);  // capacity reserved by grow_tree
        }
    }

    /// A position in `tree` for slot `index`, which is becoming occupied:
    /// the most recently freed one, else a fresh one (doubling the tree when
    /// the fresh position is past its capacity).
    static std::uint32_t take_position(class_tree& tree, std::size_t index) {
        std::uint32_t position = 0;
        if (!tree.free_positions.empty()) {
            position = tree.free_positions.back();
            tree.free_positions.pop_back();
            tree.slot_at[position] = static_cast<std::uint32_t>(index);
        } else {
            position = static_cast<std::uint32_t>(tree.slot_at.size());
            if (position == tree.capacity) grow_tree(tree);
            tree.slot_at.push_back(static_cast<std::uint32_t>(index));
        }
        return position;
    }

    /// Doubles `tree`'s capacity and sizes both position arrays to match,
    /// so neither reallocates until the next doubling.  No node needs
    /// recomputing: a node up to the old capacity K keeps its range, the new
    /// nodes in (K, 2K) cover only fresh, empty positions, and node 2K
    /// covers everything, as node K did.  The arrays reserve at least
    /// `reserved_positions` on first use, so a small class never reallocates
    /// while its descents stay log₂(capacity) deep: the tournament's dozens
    /// of classes would otherwise leave the heap strewn with tiny freed
    /// arrays (~10% more peak RSS on plurality/ordered at n = 350).
    static void grow_tree(class_tree& tree) {
        const std::size_t old = tree.capacity;
        tree.capacity = old == 0 ? 1 : 2 * old;
        const std::size_t reserved = std::max(tree.capacity, reserved_positions);
        tree.tree.reserve(reserved + 1);
        tree.tree.resize(tree.capacity + 1, 0);
        if (old > 0) tree.tree[tree.capacity] = tree.tree[old];
        tree.slot_at.reserve(reserved);
        tree.free_positions.reserve(reserved);
    }

    static void tree_add(class_tree& tree, std::size_t position, std::int64_t delta) noexcept {
        for (std::size_t i = position + 1; i <= tree.capacity; i += i & (~i + 1)) {
            tree.tree[i] += static_cast<std::uint64_t>(delta);  // two's complement wraps exactly
        }
    }

    std::vector<std::int8_t> acts_;  ///< C×C may_act memo: 1, 0 or unknown_pair
    std::uint64_t scaled_weight_ = 0;  ///< the W skip_scale_ was computed for
    double skip_scale_ = 0.0;
};

}  // namespace plurality::sim
