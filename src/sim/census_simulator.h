// Census-space simulation backend: simulate the *state census* instead of
// the agents.
//
// `census_simulator` keeps one counter per occupied state (the shared
// sim::census_store), samples the interacting *state pair* from the census,
// applies the protocol's transition function δ to the two sampled states,
// and moves two units of mass.  Memory is O(S) in the number of reachable
// states instead of O(n) in the population, which is what makes populations
// of 10⁸–10⁹ agents simulable on a laptop (bench_e15_census); per-interaction
// cost is O(log S) via a Fenwick tree over the state counts.
//
// The backend draws the interacting pair uniformly over ordered pairs of
// *distinct agents* — the same distribution the agent-based
// `sim::simulation` scheduler uses — so both backends simulate the same
// Markov chain: convergence times agree in distribution (verified in
// tests/test_census_backend.cpp), though not trajectory-for-trajectory,
// because the two backends consume their random streams differently.  A run
// remains a pure function of the seed per backend.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/census_store.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace plurality::sim {

/// Drives one protocol instance over one population, census-space.
///
/// API-compatible with `sim::simulation` where the two can be compatible:
/// `step`/`run_for`/`interactions`/`parallel_time`/`population_size`/
/// `protocol_state`/`random` match, so `sim::converge` and
/// `trace::recorder` work unchanged.  Instead of `agents()` (there is no
/// per-agent storage), configuration inspection goes through the inherited
/// census_store read API — `visit_states(fn)` is shared with `simulation` —
/// and the weighted helpers of sim/population_view.h.
/// `Obs` selects the observability policy (obs/metrics.h): the default
/// follows the PLURALITY_OBS build option; `obs::disabled` compiles every
/// instrument out (the overhead bench instantiates both).
template <protocol P, census_codec<typename P::agent_t> Codec,
          class Obs = obs::default_policy>
class census_simulator : public census_store<typename P::agent_t, Codec> {
    using store = census_store<typename P::agent_t, Codec>;

public:
    using typename store::agent_t;
    using typename store::entry_t;
    using typename store::key_t;

    /// Takes ownership of the protocol instance and the initial census.
    /// Requires a total population of at least two agents.
    census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : store(initial, "census_simulator"), protocol_(std::move(proto)), gen_(seed) {
        grow_tree(std::max<std::size_t>(64, std::bit_ceil(slots_.size())));
    }

    /// Convenience: compresses a full agent vector into its census.  Useful
    /// in tests that compare the two backends on identical configurations;
    /// large-n callers should build census entries directly.
    census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : census_simulator(std::move(proto), compress_to_census<Codec>(agents), seed) {}

    /// Executes exactly one interaction: samples an ordered pair of distinct
    /// agents by state (initiator first, then responder among the remaining
    /// n-1), applies δ to copies of the two states, and re-deposits the
    /// resulting states.
    ///
    /// Unchanged states (the common case once the dynamics settle — most
    /// epidemic or converged-tail pairs are no-ops) skip the key->slot hash
    /// probe: their post-state key matches the slot they were just withdrawn
    /// from, so the mass goes straight back by index.
    void step() {
        const std::size_t initiator = locate(gen_.next_below(population_));
        withdraw(initiator);
        const std::size_t responder = locate(gen_.next_below(population_ - 1));
        withdraw(responder);
        metrics_.descents.add(2);
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol_.interact(u, v, gen_);
        redeposit(u, initiator);
        redeposit(v, responder);
        ++interactions_;
    }

    /// Executes `count` interactions.
    void run_for(std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i) step();
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(population_);
    }

    /// Approximate heap footprint of the census bookkeeping — the O(S)
    /// quantity bench_e15_census reports next to n.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return slots_.capacity() * sizeof(typename store::slot) +
               tree_.capacity() * sizeof(std::uint64_t) +
               index_.size() * (sizeof(key_t) + sizeof(std::uint32_t) + 2 * sizeof(void*));
    }

    [[nodiscard]] P& protocol_state() noexcept { return protocol_; }
    [[nodiscard]] const P& protocol_state() const noexcept { return protocol_; }

    /// Bench/test hooks for the Fenwick rank→slot descent: `locate_rank` is
    /// the branchless production path `step()` uses, `locate_rank_reference`
    /// the straightforward guarded loop it replaced.  bench_e15_census A/Bs
    /// them; tests assert they agree on every rank.  `rank < population`.
    [[nodiscard]] std::size_t locate_rank(std::uint64_t rank) const noexcept {
        return locate(rank);
    }
    [[nodiscard]] std::size_t locate_rank_reference(std::uint64_t rank) const noexcept {
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        for (std::size_t step = capacity_; step > 0; step >>= 1) {
            const std::size_t next = position + step;
            if (next <= capacity_ && tree_[next] <= remaining) {
                position = next;
                remaining -= tree_[next];
            }
        }
        return position;
    }

    /// Exposes the random stream (same contract as simulation::random).
    [[nodiscard]] rng& random() noexcept { return gen_; }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// All values are deterministic per seed.
    void collect_metrics(obs::snapshot& out) const {
        if constexpr (Obs::active) {
            out.add_counter(obs::m_interactions, interactions_);
            out.add_counter(obs::m_rng_words, gen_.words());
            out.add_counter(obs::m_fenwick_descents, metrics_.descents.value());
            out.add_gauge(obs::m_occupied_hwm, this->occupied_states_hwm());
            out.add_gauge(obs::m_reachable_states, slots_.size());
        }
    }

private:
    using store::add_to;
    using store::index_;
    using store::population_;
    using store::remove_from;
    using store::slot_for;
    using store::slots_;

    /// Policy-selected instruments; empty (and free) under obs::disabled.
    struct instrument_set {
        [[no_unique_address]] typename Obs::counter_t descents;
    };

    /// Returns one agent in `state` that was just withdrawn from slot
    /// `origin`: when the interaction left the state unchanged the mass goes
    /// straight back by index, bypassing the hash map; a state seen for the
    /// first time gets a new slot (and, past the capacity, a doubled tree).
    void redeposit(const agent_t& state, std::size_t origin) {
        const key_t key = Codec::encode(state);
        std::size_t index = origin;
        if (key != slots_[origin].key) {
            index = slot_for(state, key);
            if (slots_.size() > capacity_) grow_tree(capacity_ * 2);
        }
        add_to(index, 1);
        tree_add(index, 1);
    }

    /// Removes one agent from slot `index` (which must be occupied).
    void withdraw(std::size_t index) {
        remove_from(index, 1);
        tree_add(index, -1);
    }

    // -- Fenwick tree over slot counts (1-based, power-of-two capacity) -----

    void grow_tree(std::size_t capacity) {
        capacity_ = capacity;
        tree_.assign(capacity_ + 1, 0);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            tree_add(i, static_cast<std::int64_t>(slots_[i].count));
    }

    void tree_add(std::size_t index, std::int64_t delta) {
        for (std::size_t i = index + 1; i <= capacity_; i += i & (~i + 1)) {
            tree_[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(tree_[i]) + delta);
        }
    }

    /// Slot containing the agent with zero-based rank `rank` in cumulative
    /// count order: the largest prefix p with sum(slots[0..p)) <= rank.
    ///
    /// Branchless descent.  `capacity_` is a power of two, so `tree_` is a
    /// perfect binary heap over [1, capacity_]: the root `tree_[capacity_]`
    /// holds the whole population, which no valid rank can reach, so the
    /// walk starts one level down — and from there `position` is always a
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

    P protocol_;
    rng gen_;
    std::vector<std::uint64_t> tree_;  ///< Fenwick tree over slot counts
    std::size_t capacity_ = 0;         ///< tree capacity (power of two)
    std::uint64_t interactions_ = 0;
    [[no_unique_address]] instrument_set metrics_;
};

}  // namespace plurality::sim
