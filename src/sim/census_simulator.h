// Census-space simulation backend: simulate the *state census* instead of
// the agents.
//
// `census_simulator` keeps one counter per occupied state (the shared
// sim::census_store), samples the interacting *state pair* from the census,
// applies the protocol's transition function δ to the two sampled states,
// and moves the agents δ changed (a unit of mass each).  Memory is O(S) in
// the number of reachable states instead of O(n) in the population, which
// is what makes populations of 10⁸–10⁹ agents simulable on a laptop
// (bench_e15_census).  Every interaction goes through the store's loop
// (`census_store::advance`, shared with the leap backend's stepped
// segments): interactions in class pairs the protocol declares inactive are
// skipped in bulk by one geometric draw, and each executed one costs one
// bounded uniform over the may-act pairs (plus one to pick the initiator's
// class when several are live), two O(log S_c) Fenwick descents in the
// class trees, and δ; an agent δ leaves unchanged costs no tree update at
// all.
//
// The backend draws the interacting pair uniformly over ordered pairs of
// *distinct agents* — the same distribution the agent-based
// `sim::simulation` scheduler uses — so both backends simulate the same
// Markov chain: convergence times agree in distribution (verified in
// tests/test_census_backend.cpp), though not trajectory-for-trajectory,
// because the two backends consume their random streams differently.  A run
// remains a pure function of the seed per backend.
#pragma once

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
/// `step`/`run_for`/`interactions`/`parallel_time`/`population_size` match,
/// so `sim::converge` and `trace::recorder` work unchanged.  Instead of
/// `agents()` (there is no per-agent storage), configuration inspection goes
/// through the inherited census_store read API — `visit_states(fn)` is
/// shared with `simulation` — and the weighted helpers of
/// sim/population_view.h.
/// `Obs` selects the observability policy (obs/metrics.h): the default
/// follows the PLURALITY_OBS build option; `obs::disabled` compiles every
/// instrument out (the overhead bench instantiates both).
template <protocol P, census_codec<typename P::agent_t> Codec,
          class Obs = obs::default_policy>
class census_simulator : public census_store<P, Codec> {
    using store = census_store<P, Codec>;

public:
    using typename store::agent_t;
    using typename store::entry_t;
    using typename store::key_t;

    /// Takes ownership of the protocol instance and the initial census.
    /// Requires a total population of 2 <= n <= 2^32 − 1.
    census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : store(std::move(proto), initial, "census_simulator"), gen_(seed) {}

    /// Convenience: compresses a full agent vector into its census.  Useful
    /// in tests that compare the two backends on identical configurations;
    /// large-n callers should build census entries directly.
    census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : census_simulator(std::move(proto), compress_to_census<Codec>(agents), seed) {}

    /// Executes exactly one interaction.
    void step() { run_for(1); }

    /// Executes exactly `count` interactions (census_store::advance); the
    /// ones it skipped as identities count as absorbed.
    void run_for(std::uint64_t count) {
        const std::uint64_t executed = this->advance(count, gen_, [](std::size_t) {});
        metrics_.descents.add(2 * executed);
        metrics_.absorbed.add(count - executed);
        interactions_ += count;
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(population_);
    }

    /// Approximate heap footprint of the census bookkeeping — the O(S)
    /// quantity bench_e15_census reports next to n.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        std::size_t bytes = slots_.capacity() * sizeof(typename store::slot) +
                            successor_.capacity() * sizeof(std::uint32_t) +
                            classes_.capacity() * sizeof(typename store::class_tree) +
                            live_.capacity() * sizeof(std::uint32_t) +
                            index_.size() * (sizeof(key_t) + sizeof(std::uint32_t) +
                                             2 * sizeof(void*));
        for (const auto& tree : classes_) {
            bytes += tree.tree.capacity() * sizeof(std::uint64_t) +
                     (tree.slot_at.capacity() + tree.free_positions.capacity()) *
                         sizeof(std::uint32_t);
        }
        return bytes;
    }

    /// Bench/test hooks for the Fenwick rank→slot descent in the tree of
    /// activity class `cls`: `locate_rank` is the branchless production path
    /// the interaction loop uses, `locate_rank_reference` the
    /// straightforward guarded loop it replaced; both map the tree position
    /// they reach back to its slot.  bench_e15_census A/Bs them; tests
    /// assert they agree on every rank.  `rank < class_count(cls)`.
    [[nodiscard]] std::size_t locate_rank(std::uint32_t cls, std::uint64_t rank) const noexcept {
        return locate(classes_[cls], rank);
    }
    [[nodiscard]] std::size_t locate_rank_reference(std::uint32_t cls,
                                                    std::uint64_t rank) const noexcept {
        const auto& tree = classes_[cls];
        std::size_t position = 0;
        std::uint64_t remaining = rank;
        for (std::size_t step = tree.capacity; step > 0; step >>= 1) {
            const std::size_t next = position + step;
            if (next <= tree.capacity && tree.tree[next] <= remaining) {
                position = next;
                remaining -= tree.tree[next];
            }
        }
        return tree.slot_at[position];
    }

    /// Test hooks: the number of agents in activity class `cls` (N_c), the
    /// may-act weight W, and the (initiator, responder) slots that the
    /// executed-pair draw selects for `rank` < W — the initiator class and
    /// the rank's offset in its block (census_store::initiator_class_at),
    /// then the offset as the cell (offset / R_c, offset mod R_c) that the
    /// chained multiply splits a bounded uniform over N_c·R_c into
    /// (census_store::pair_in_class).  Enumerating every rank enumerates
    /// every value of the draw once.
    [[nodiscard]] std::uint64_t class_count(std::uint32_t cls) const noexcept {
        return classes_[cls].count;
    }
    [[nodiscard]] std::uint64_t may_act_weight() const noexcept { return weight_; }
    [[nodiscard]] std::pair<std::size_t, std::size_t> executed_pair_at(
        std::uint64_t rank) const noexcept {
        const auto [cls, offset] = this->initiator_class_at(rank);
        const std::uint64_t row = classes_[cls].row;
        return this->pair_in_class(cls, offset / row, offset % row);
    }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// All values are deterministic per seed.
    void collect_metrics(obs::snapshot& out) const {
        if constexpr (Obs::active) {
            out.add_counter(obs::m_interactions, interactions_);
            out.add_counter(obs::m_rng_words, gen_.words());
            out.add_counter(obs::m_fenwick_descents, metrics_.descents.value());
            out.add_counter(obs::m_absorbed_fastpath, metrics_.absorbed.value());
            out.add_gauge(obs::m_occupied_hwm, this->occupied_states_hwm());
            out.add_gauge(obs::m_reachable_states, slots_.size());
        }
    }

private:
    using store::classes_;
    using store::index_;
    using store::live_;
    using store::locate;
    using store::population_;
    using store::slots_;
    using store::successor_;
    using store::weight_;

    /// Policy-selected instruments; empty (and free) under obs::disabled.
    struct instrument_set {
        [[no_unique_address]] typename Obs::counter_t descents;
        [[no_unique_address]] typename Obs::counter_t absorbed;
    };

    rng gen_;
    std::uint64_t interactions_ = 0;
    [[no_unique_address]] instrument_set metrics_;
};

}  // namespace plurality::sim
