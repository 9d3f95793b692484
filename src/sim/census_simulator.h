// Census-space simulation backend: simulate the *state census* instead of
// the agents.
//
// `census_simulator` keeps one counter per occupied state (the shared
// sim::census_store), samples the interacting *state pair* from the census,
// applies the protocol's transition function δ to the two sampled states,
// and moves the agents δ changed (a unit of mass each).  Memory is O(S) in
// the number of reachable states instead of O(n) in the population, which
// is what makes populations of 10⁸–10⁹ agents simulable on a laptop
// (bench_e15_census).  Per-interaction cost is two O(log S) Fenwick descents
// plus δ, S = occupied states (the store's tree spans the most states ever
// occupied at once, not every state reached), and an agent δ leaves
// unchanged costs no tree update at all.  The step itself
// (`census_store::step_interaction`) is shared with the leap backend, which
// runs it whenever stepping is cheaper than its contingency table.
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
class census_simulator : public census_store<typename P::agent_t, Codec> {
    using store = census_store<typename P::agent_t, Codec>;

public:
    using typename store::agent_t;
    using typename store::entry_t;
    using typename store::key_t;

    /// Takes ownership of the protocol instance and the initial census.
    /// Requires a total population of at least two agents.
    census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : store(initial, "census_simulator"), protocol_(std::move(proto)), gen_(seed) {}

    /// Convenience: compresses a full agent vector into its census.  Useful
    /// in tests that compare the two backends on identical configurations;
    /// large-n callers should build census entries directly.
    census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : census_simulator(std::move(proto), compress_to_census<Codec>(agents), seed) {}

    /// Executes exactly one interaction (census_store::step_interaction).
    void step() {
        this->step_interaction(protocol_, gen_, [](std::size_t) {});
        metrics_.descents.add(2);
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
               (slot_at_.capacity() + free_positions_.capacity()) * sizeof(std::uint32_t) +
               index_.size() * (sizeof(key_t) + sizeof(std::uint32_t) + 2 * sizeof(void*));
    }

    /// Bench/test hooks for the Fenwick rank→slot descent: `locate_rank` is
    /// the branchless production path `step()` uses, `locate_rank_reference`
    /// the straightforward guarded loop it replaced; both map the tree
    /// position they reach back to its slot.  bench_e15_census A/Bs them;
    /// tests assert they agree on every rank.  `rank < population`.
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
        return slot_at_[position];
    }

    /// Test hook: the (initiator, responder) slots `step()` interacts for
    /// the uniforms `first` < n and `second` < n-1 (census_store::pair_at).
    using store::pair_at;

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
    using store::capacity_;
    using store::free_positions_;
    using store::index_;
    using store::locate;
    using store::population_;
    using store::slot_at_;
    using store::slots_;
    using store::tree_;

    /// Policy-selected instruments; empty (and free) under obs::disabled.
    struct instrument_set {
        [[no_unique_address]] typename Obs::counter_t descents;
    };

    P protocol_;
    rng gen_;
    std::uint64_t interactions_ = 0;
    [[no_unique_address]] instrument_set metrics_;
};

}  // namespace plurality::sim
