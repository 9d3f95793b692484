// Pair-type leaping backend: many interactions per unit of bookkeeping work,
// *exactly* the same sequential Markov chain as the per-step census backend.
//
// The per-step census backend (sim/census_simulator.h) pays two Fenwick
// descents and a δ call for every interaction it does not skip, plus two
// tree updates for each agent δ changed.
// Under the uniform pairwise scheduler, long prefixes of the interaction
// sequence touch pairwise-distinct agents (the birthday problem — the
// expected prefix is Θ(√n)), and within such a *collision-free run* the
// interactions commute: a run is fully described by its ordered
// (initiator-state × responder-state) contingency table.  The leap backend
// samples that table directly:
//
//   1. Run length L: one uniform inverted through the closed-form
//      log-survival function of the birthday law
//      (dist::sample_collision_free_run_leap) — O(log L) worst case, O(1)
//      expected.
//   2. Initiator-state counts: one multivariate-hypergeometric draw of L
//      agents over the census (dist::multivariate_hypergeometric).
//   3. Responder-state counts: one MVH draw of L agents over the remaining
//      census.
//   4. The table: a uniform random bijection between the initiator and
//      responder multisets, sampled row-by-row by sequential MVH
//      conditioning.  δ applies once per nonzero cell for pairs the protocol
//      declares deterministic, by one multinomial split per cell for pairs
//      whose outcome distribution enumerates (protocols whose `interact` is
//      a template over the generator: the randomized-δ group path of
//      sim/group_delta.h), and per interaction otherwise — so every
//      protocol runs correctly.
//   5. If the run ended in a collision (rather than the caller's budget),
//      the colliding interaction is executed from its exact conditional
//      distribution: a uniform ordered pair of distinct agents conditioned
//      on touching at least one run participant, whose state is its
//      post-run state (both-used / used-fresh / fresh-used).
//
// Steps 1–5 repeat until the requested interaction count is reached; the
// final run is truncated so `run_for` executes *exactly* the requested
// number of interactions and `sim::converge`'s budget accounting stays
// exact.  Per-run cost is O(occupied) fixed work for the margin draws plus
// O(nonzero²) for the table — *independent of L* up to the O(σ) ≈ O(n^¼)
// enumeration inside each mode-centered variate.  bench_e17_leap measures
// the ratio against the per-step census backend (acceptance bar: ≥5× on
// epidemic and three-state at n = 10⁹).
//
// That per-run cost only pays when few states are occupied relative to the
// mean run length L̄ = √(πn/8).  Before each run a cost model
// (`leap_cost_model`) compares ~2S + min(S, L̄)·min(S, 2L̄) table variates
// against ~L̄·p·2·log₂S Fenwick levels for the S occupied states, p being
// the share of interactions the protocol's activity classes let act
// (census_simulator::executed_share); when stepping is cheaper, the next
// ⌈L̄ / p⌉ interactions go through the census backend's interaction loop
// (census_simulator::advance: skipped in bulk where nothing may act, one at
// a time elsewhere), which the leap backend inherits, and the model decides
// again.
// On the paper's ordered tournament at n = 350, k = 4 (up to ~114 occupied
// states, runs of ~11 interactions, p ≈ 0.14) the model steps almost
// everywhere: the table path alone takes ~260 ns per interaction there,
// stepping ~7–9 ns and 0.4 RNG words, level with the census backend on the
// same chain (4-core AMD EPYC, Release).  On every E17/E18 row (S = 2–35 at
// n = 10⁸–10⁹) it keeps the table.
//
// Exactness: the scheduler's interaction sequence is i.i.d. uniform over
// ordered pairs of distinct agents.  Decompose it by the position of the
// first collision: the prefix, conditioned on being collision-free, is a
// uniform without-replacement draw of 2L distinct agents — and because no
// agent appears twice, each interaction's inputs are the agents' pre-run
// states, so the per-pair transitions commute and only the *multiset* of
// ordered state pairs matters.  Drawing the L initiators, then the L
// responders, without replacement and pairing them by a uniform bijection
// has exactly that law (exchangeability of without-replacement draws).  The
// colliding interaction is sampled from its exact conditional distribution
// given the set of used agents.  Both census-space backends therefore
// simulate the same chain; convergence-time distributions agree
// (tests/test_census_backend.cpp pins this at 5σ against the agent and
// census backends), while per-seed trajectories are backend-specific.
//
// Switching strategies between segments is exact as well.  A stepped
// segment and a leap run each advance the chain by its exact transition law
// over the interactions they execute; the run's end (first collision or
// budget) is a stopping time of the i.i.d. pair sequence, so the next
// segment starts from a correctly distributed census with fresh i.i.d.
// pairs ahead.  The choice reads only the current census (its occupied
// count) and n — never a draw still to come — so it selects which exact
// kernel to apply next without biasing either.  A run's strategy sequence is
// therefore a pure function of the seed, like everything else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/census_simulator.h"
#include "sim/census_store.h"
#include "sim/delta_outcomes.h"
#include "sim/group_delta.h"
#include "sim/random_dist.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace plurality::sim {

/// The leap backend's per-run strategy choice.  Both strategies advance the
/// same chain; the model only picks the cheaper one for the current census,
/// from two work estimates for L̄ interactions, in units of one random
/// variate or one Fenwick level:
///
///  * table: ~2S margin variates (two MVH sweeps over the S occupied
///    states) plus min(S, L̄)·min(S, 2L̄) table variates (at most L̄
///    nonempty rows, each an MVH over at most 2L̄ responder states);
///  * stepping: the p·L̄ of them the census loop executes — p =
///    W / n(n−1), the executed share, 1 without activity classes — each of
///    two Fenwick descents of ~log₂S levels; the skipped ones cost next to
///    nothing.
///
/// L̄ = √(πn/8) is the mean collision-free run length (the birthday law's
/// P(L ≥ l) ≈ exp(−2l²/n)), computed once per simulator.  p is a function
/// of the current census, like S, so the choice still reads no draw to
/// come.  S ≤ 2 always takes the table, which keeps the absorbed-census
/// fast path and the two-state rows (epidemic at any n) on it.
///
/// Both estimates carry unit weight.  Measured on plurality/ordered at
/// n = 350, k = 4 (4-core AMD EPYC, Release), with each estimate averaged
/// over the decisions that took it: the table path alone (stepping disabled
/// in a throwaway build; ~350 table variates per run) costs ~9 ns per
/// estimated variate (3.2 µs per run, ~260 ns per interaction), stepping
/// (p ≈ 0.14, ~1.5 estimated levels per interaction) ~5.8 ns per estimated
/// level (~9 ns per interaction).  With unit weights the model steps from
/// S = 8 at n = 350 and S = 605 at n = 10⁹ when every interaction executes,
/// and from S = 3 and S = 206 at p = 0.14; weighting by the measured
/// 1.6 : 1 would move those to S = 5, 468, 3 and 159.  No measured workload
/// sits in between: the tournament at n = 350 takes ~1 table run per trial,
/// and every E17/E18 row (S ≤ 35 at n = 10⁸–10⁹, p = 1 in the early regime
/// they measure) stays on the table either way.
struct leap_cost_model {
    explicit leap_cost_model(std::uint64_t population) noexcept
        : mean_run(std::sqrt(std::numbers::pi * static_cast<double>(population) / 8.0)) {}

    /// True when stepping is estimated to cost less than one table run over
    /// `occupied` states, per interaction, when a share `executed_share` of
    /// the stepped interactions calls δ (the rest are skipped identities,
    /// census_simulator::advance).
    [[nodiscard]] bool prefers_stepping(std::size_t occupied,
                                        double executed_share) const noexcept {
        if (occupied <= 2) return false;
        const auto s = static_cast<double>(occupied);
        const double table = 2.0 * s + std::min(s, mean_run) * std::min(s, 2.0 * mean_run);
        const double stepping = mean_run * executed_share * 2.0 * std::log2(s);
        return stepping < table;
    }

    /// Interactions one stepped segment covers before the model decides
    /// again: ⌈L̄ / executed_share⌉, so that ~L̄ of them call δ whatever the
    /// share, capped at `budget` (the whole budget when nothing may act).
    /// The skipped identities cost next to nothing, but each segment end
    /// cuts a skip short and asks the model again.
    [[nodiscard]] std::uint64_t segment(double executed_share,
                                        std::uint64_t budget) const noexcept {
        const double span = std::ceil(mean_run / executed_share);
        return span >= static_cast<double>(budget) ? budget : static_cast<std::uint64_t>(span);
    }

    double mean_run;  ///< L̄ = √(πn/8)
};

/// Drives one protocol instance over one population, census-space, leaping
/// whole collision-free runs via their pair-type contingency table — or,
/// wherever `leap_cost_model` finds the table dearer, stepping through the
/// census backend's interaction loop.  It *is* a census_simulator (same
/// census, generator, interaction count and read API, so `sim::converge`,
/// `trace::recorder` and the sim::view helpers work unchanged) whose
/// `run_for` and `step` hide the base's: scenario code reaches a leap
/// simulator through its own type, and a predicate gets only a const
/// census_simulator&, which cannot step.
/// `Obs` selects the observability policy (obs/metrics.h): the default
/// follows the PLURALITY_OBS build option; `obs::disabled` compiles every
/// instrument out.  This is the backend the ≤2% overhead gate measures
/// (bench_e19_obs_overhead): a leap run at n = 10⁹ is ~10 µs of work, so
/// all timers are run-granular — a handful of clock reads per run.
/// `Retired` is ignored: only the frozen benchmark (consensus_bench/) still
/// passes one.
template <protocol P, class Retired = void, class Obs = obs::default_policy>
class leap_census_simulator : public census_simulator<P, void, Obs> {
    using census = census_simulator<P, void, Obs>;

public:
    using typename census::agent_t;
    using census::census;

    /// Executes exactly one interaction: a stepped one or a leap run
    /// truncated to length 1, whichever the cost model picks.
    void step() { run_for(1); }

    /// Executes exactly `count` interactions, one stepped segment or
    /// collision-free run at a time, whichever the cost model prefers for
    /// the current census; the last one is truncated to land on `count`
    /// precisely.  The choice is made here rather than inside `leap_run` so
    /// the stepping loop is compiled apart from the table path's large
    /// body: inlined there, GCC 12 leaves the scheduler's two bounded
    /// uniforms as out-of-line calls.
    void run_for(std::uint64_t count) {
        while (count > 0) {
            const double share = this->executed_share();
            count -= cost_.prefers_stepping(this->occupied_.size(), share)
                         ? step_segment(cost_.segment(share, count))
                         : leap_run(count);
        }
    }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// Counters, gauges and histograms are deterministic per seed; the
    /// phase timers are wall-clock and surface only in the sidecar's timing
    /// section.
    void collect_metrics(obs::snapshot& out) const {
        if constexpr (Obs::active) {
            out.add_counter(obs::m_interactions, this->interactions_);
            out.add_counter(obs::m_rng_words, this->gen_.words());
            out.add_counter(obs::m_runs, leap_metrics_.runs.value());
            out.add_counter(obs::m_collisions, leap_metrics_.collisions.value());
            out.add_counter(obs::m_absorbed_fastpath, this->metrics_.absorbed.value());
            out.add_counter(obs::m_delta_deterministic,
                            leap_metrics_.delta_deterministic.value());
            out.add_counter(obs::m_delta_grouped, leap_metrics_.delta_grouped.value());
            out.add_counter(obs::m_delta_fallback, leap_metrics_.delta_fallback.value());
            out.add_counter(obs::m_table_hits, delta_table_.hits());
            out.add_counter(obs::m_table_misses, delta_table_.misses());
            // Only runs that stepped report Fenwick work, so a run that
            // stayed on the table path writes no Fenwick counter at all.
            if (this->metrics_.descents.value() > 0)
                out.add_counter(obs::m_fenwick_descents, this->metrics_.descents.value());
            out.add_gauge(obs::m_occupied_hwm, this->occupied_states_hwm());
            out.add_gauge(obs::m_reachable_states, this->slots_.size());
            out.add_histogram(obs::m_run_length, leap_metrics_.run_length);
            // Timers sample every obs::phase_sample_every-th run; scale the
            // accumulated seconds back up to estimate the full phase time.
            constexpr auto scale = static_cast<double>(obs::phase_sample_every);
            out.add_timer(obs::m_phase_run_length,
                          leap_metrics_.t_run_length.seconds() * scale);
            out.add_timer(obs::m_phase_margins, leap_metrics_.t_margins.seconds() * scale);
            out.add_timer(obs::m_phase_table, leap_metrics_.t_table.seconds() * scale);
            out.add_timer(obs::m_phase_collision, leap_metrics_.t_collision.seconds() * scale);
        }
    }

private:
    /// Policy-selected instruments beyond the census backend's (Fenwick
    /// descents and absorbed interactions, which leap counts too); empty
    /// (and free) under obs::disabled.
    struct leap_instrument_set {
        [[no_unique_address]] typename Obs::counter_t runs;
        [[no_unique_address]] typename Obs::counter_t collisions;
        [[no_unique_address]] typename Obs::counter_t delta_deterministic;
        [[no_unique_address]] typename Obs::counter_t delta_grouped;
        [[no_unique_address]] typename Obs::counter_t delta_fallback;
        [[no_unique_address]] typename Obs::histogram_t run_length;
        [[no_unique_address]] typename Obs::timer_t t_run_length;
        [[no_unique_address]] typename Obs::timer_t t_margins;
        [[no_unique_address]] typename Obs::timer_t t_table;
        [[no_unique_address]] typename Obs::timer_t t_collision;
    };

    /// Advances the chain by one leap: a collision-free run truncated at
    /// `budget`, plus the colliding interaction when the run ended
    /// naturally.  Returns the number of interactions executed (>= 1).
    std::uint64_t leap_run(std::uint64_t budget) {
        // Absorbed-census fast path: with a single occupied state and a
        // quiescent δ(s, s) = (s, s) — declared deterministic, or an
        // enumerated outcome distribution whose only outcome is the
        // identity — every future interaction is a no-op: execute the whole
        // budget in O(1).  The skipped draws can never matter: no later
        // interaction can read them into the census.
        if (this->occupied_.size() == 1) {
            const auto& only = this->slots_[this->occupied_[0]];
            bool quiescent = false;
            if constexpr (declares_deterministic_delta<P>) {
                if (this->protocol_.deterministic_delta(only.state, only.state)) {
                    agent_t u = only.state;
                    agent_t v = only.state;
                    this->protocol_.interact(u, v, this->gen_);
                    quiescent = same_state(u, only.state) && same_state(v, only.state);
                }
            }
            if constexpr (delta_enumerable<P>) {
                if (!quiescent) {
                    const auto& entry =
                        delta_table_.lookup(this->protocol_, only.state, only.state);
                    quiescent = entry.groupable && entry.outcomes.size() == 1 &&
                                same_state(entry.outcomes[0].initiator, only.state) &&
                                same_state(entry.outcomes[0].responder, only.state);
                }
            }
            if (quiescent) {
                this->interactions_ += budget;
                this->metrics_.absorbed.add(budget);
                return budget;
            }
        }

        // Snapshot the occupied slots and their counts: all draws below are
        // over the pre-run census, and withdrawing the participants reorders
        // the occupied list.  O(occupied), not O(reachable): protocols that
        // keep discovering fresh states (e.g. the tournament families) would
        // otherwise degrade as dormant slots pile up.
        run_slots_.assign(this->occupied_.begin(), this->occupied_.end());
        counts_.clear();
        for (const std::uint32_t i : run_slots_) counts_.push_back(this->slots_[i].count);

        // Phase boundaries are one clock read each, at *run* granularity, on
        // every phase_sample_every-th run only (~17 ns per read adds up over
        // ~10⁶ runs; the 1-in-64 sample is scaled back up at collection).
        // Under obs::disabled `timed` is constant false and everything folds
        // away.
        const bool timed =
            Obs::active && leap_metrics_.runs.value() % obs::phase_sample_every == 0;
        const std::uint64_t t0 = timed ? obs::now_ticks() : 0;
        const auto run =
            dist::sample_collision_free_run_leap(this->gen_, this->population_, budget);
        const std::uint64_t pairs = run.length;
        leap_metrics_.runs.add(1);
        leap_metrics_.run_length.record(pairs);
        const std::uint64_t t1 = timed ? obs::now_ticks() : 0;
        if (timed) leap_metrics_.t_run_length.add_ticks(t1 - t0);

        // Margins first, participants never: the L initiators are an MVH
        // draw over the census, the L responders an MVH draw over what
        // remains.  No 2L-sized anything is materialized.
        init_.assign(run_slots_.size(), 0);
        dist::multivariate_hypergeometric(this->gen_, counts_, pairs, init_);
        for (std::size_t j = 0; j < run_slots_.size(); ++j) counts_[j] -= init_[j];
        resp_.assign(run_slots_.size(), 0);
        dist::multivariate_hypergeometric(this->gen_, counts_, pairs, resp_);

        // Withdraw all participants and compact to the states that take part
        // (at most 2L of them): every stage below is quadratic-ish in the
        // category count.  Zero-draw categories consumed no randomness, so
        // compaction leaves the stream unchanged.
        pslots_.clear();
        pinit_.clear();
        presp_.clear();
        for (std::size_t j = 0; j < run_slots_.size(); ++j) {
            const std::uint64_t taking = init_[j] + resp_[j];
            if (taking == 0) continue;
            this->remove_from(run_slots_[j], taking);
            pslots_.push_back(run_slots_[j]);
            pinit_.push_back(init_[j]);
            presp_.push_back(resp_[j]);
        }

        const std::uint64_t t2 = timed ? obs::now_ticks() : 0;
        if (timed) leap_metrics_.t_margins.add_ticks(t2 - t1);

        // The pair-type table: pair the margins by a uniform random
        // bijection, sampled as sequentially-conditioned rows — one MVH of
        // initiator state j's row over the responders still unpaired; δ
        // applies once per nonzero cell.
        used_.clear();
        for (std::size_t j = 0; j < pslots_.size(); ++j) {
            if (pinit_[j] == 0) continue;
            row_.assign(pslots_.size(), 0);
            dist::multivariate_hypergeometric(this->gen_, presp_, pinit_[j], row_);
            for (std::size_t t = 0; t < pslots_.size(); ++t) {
                if (row_[t] == 0) continue;
                presp_[t] -= row_[t];
                apply_group(this->slots_[pslots_[j]].state, this->slots_[pslots_[t]].state,
                            row_[t]);
            }
        }

        const std::uint64_t t3 = timed ? obs::now_ticks() : 0;
        if (timed) leap_metrics_.t_table.add_ticks(t3 - t2);

        if (run.collided) {
            leap_metrics_.collisions.add(1);
            execute_collision(2 * pairs);
        }

        // Re-deposit every participant's post-state.  Post-states are almost
        // always occupied slots already, so while few are occupied try a
        // short compare scan of the occupied list before paying the hash
        // lookup.
        const auto& occupied = this->occupied_;
        for (const auto& g : used_.groups()) {
            if (g.count == 0) continue;
            auto listed = occupied.end();
            if (occupied.size() <= 16) {
                listed = std::find_if(occupied.begin(), occupied.end(), [&](std::uint32_t i) {
                    return same_state(this->slots_[i].state, g.state);
                });
            }
            this->add_to(listed != occupied.end() ? *listed : this->slot_for(g.state), g.count);
        }

        const std::uint64_t t4 = timed ? obs::now_ticks() : 0;
        if (timed) leap_metrics_.t_collision.add_ticks(t4 - t3);

        const std::uint64_t executed = pairs + (run.collided ? 1 : 0);
        this->interactions_ += executed;
        return executed;
    }

    /// Executes `count` interactions through the census backend's
    /// interaction loop (census_simulator::advance): each executed one
    /// counts as one per-pair δ call.
    std::uint64_t step_segment(std::uint64_t count) {
        leap_metrics_.delta_fallback.add(this->advance(count));
        return count;
    }

    /// Applies δ to `count` interactions that all see the ordered state pair
    /// (u, v): once for a declared-deterministic pair, via one multinomial
    /// split for a pair whose outcome distribution enumerates, per
    /// interaction otherwise (the exact fallback for randomized δ).
    void apply_group(const agent_t& u_state, const agent_t& v_state, std::uint64_t count) {
        if constexpr (declares_deterministic_delta<P>) {
            if (this->protocol_.deterministic_delta(u_state, v_state)) {
                agent_t u = u_state;
                agent_t v = v_state;
                this->protocol_.interact(u, v, this->gen_);
                used_.add(u, count);
                used_.add(v, count);
                leap_metrics_.delta_deterministic.add(count);
                return;
            }
        }
        if constexpr (delta_enumerable<P>) {
            const auto& entry = delta_table_.lookup(this->protocol_, u_state, v_state);
            if (entry.groupable) {
                delta_table_.apply_group(
                    entry, this->gen_, count,
                    [this](const agent_t& state, std::uint64_t c) { used_.add(state, c); });
                leap_metrics_.delta_grouped.add(count);
                return;
            }
        }
        for (std::uint64_t c = 0; c < count; ++c) {
            agent_t u = u_state;
            agent_t v = v_state;
            this->protocol_.interact(u, v, this->gen_);
            used_.add(u, 1);
            used_.add(v, 1);
        }
        leap_metrics_.delta_fallback.add(count);
    }

    /// Executes the interaction that ended the run: a uniform ordered pair of
    /// distinct agents conditioned on touching at least one of the `m2` run
    /// participants (whose post-run states live in `used_`).  The three
    /// cases — both agents participated, initiator participated + fresh
    /// responder, fresh initiator + participating responder — are decoded
    /// from one bounded uniform over the conditional pair space.  Both
    /// post-states go back into `used_`, so the caller's re-deposit loop
    /// covers them.
    void execute_collision(std::uint64_t m2) {
        const std::uint64_t fresh = this->population_ - m2;
        const std::uint64_t both_used = m2 * (m2 - 1);
        const std::uint64_t r = this->gen_.next_below(both_used + 2 * m2 * fresh);
        agent_t u;
        agent_t v;
        if (r < both_used) {
            const std::uint64_t i = r / (m2 - 1);
            std::uint64_t j = r % (m2 - 1);
            if (j >= i) ++j;  // distinct-ordered-pair decode
            u = used_.state_at(i);
            v = used_.state_at(j);
            used_.remove_one(u);
            used_.remove_one(v);
        } else if (r < both_used + m2 * fresh) {
            const std::uint64_t q = r - both_used;
            u = used_.state_at(q / fresh);
            used_.remove_one(u);
            v = census_take_at(q % fresh);
        } else {
            const std::uint64_t q = r - both_used - m2 * fresh;
            u = census_take_at(q % fresh);
            v = used_.state_at(q / fresh);
            used_.remove_one(v);
        }
        this->protocol_.interact(u, v, this->gen_);
        used_.add(u, 1);
        used_.add(v, 1);
    }

    /// Withdraws and returns the state of the *fresh* (non-participant)
    /// agent with zero-based rank `rank` over the current census counts, in
    /// occupied-list order (the participants are all withdrawn, so every
    /// agent still in the census is fresh).
    [[nodiscard]] agent_t census_take_at(std::uint64_t rank) {
        std::uint64_t remaining = rank;
        std::uint32_t pick = this->occupied_.back();  // unreachable for rank < census total
        for (const std::uint32_t i : this->occupied_) {
            if (remaining < this->slots_[i].count) {
                pick = i;
                break;
            }
            remaining -= this->slots_[i].count;
        }
        const agent_t state = this->slots_[pick].state;
        this->remove_from(pick, 1);
        return state;
    }

    leap_cost_model cost_{this->population_};

    // Per-run scratch, reused across runs to stay allocation-free on the hot
    // path.
    std::vector<std::uint32_t> run_slots_;  ///< the occupied slots at the run's start
    std::vector<std::uint64_t> counts_;     ///< their counts then
    std::vector<std::uint64_t> init_;       ///< initiator margin per run slot
    std::vector<std::uint64_t> resp_;       ///< responder margin per run slot
    std::vector<std::uint32_t> pslots_;     ///< slots taking part (compact)
    std::vector<std::uint64_t> pinit_;      ///< initiator margin, compacted
    std::vector<std::uint64_t> presp_;      ///< unpaired responders, compacted
    std::vector<std::uint64_t> row_;        ///< one contingency-table row
    detail::used_group_set<agent_t> used_;        ///< post-run states of participants
    detail::delta_outcome_table<P> delta_table_;  ///< randomized-δ group path cache
    [[no_unique_address]] leap_instrument_set leap_metrics_;
};

}  // namespace plurality::sim
