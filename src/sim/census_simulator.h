// Census-space simulation backend: simulate the *state census* instead of
// the agents.
//
// `census_simulator` keeps one slot per state ever reached — a state being
// the agent's bytes (sim::census_agent, sim/census_store.h) — with the number
// of agents in it, a state→slot index, and one dense list of the occupied
// slots, which `visit_states` walks and `occupied_states` counts.  It samples
// interacting *state pairs* from the census, applies the protocol's
// transition function δ to them, and moves the agents δ changed.  States δ
// discovers get slots on the fly, so no global state-space enumeration is
// ever needed.  Memory is O(S) in the number of reachable states instead of
// O(n) in the population, which is what makes populations of 10⁸–10⁹ agents
// simulable on a laptop (bench_e15_census, bench_e17_leap).
//
// The sampling structure is partitioned by *activity class*
// (sim::declares_activity_classes): every slot belongs to the class of its
// state, each class keeps its own Fenwick tree over its occupied slots'
// counts, indexed by positions a slot holds only while occupied, and the
// simulator keeps the class counts N_c and the may-act weight
// W = Σ N_c·(N_d − [c = d]) over the class pairs the protocol declares
// may-act.  Every mass move goes through `add_to` / `remove_from`, which keep
// the occupied list, the trees, the counts and W in sync.  A protocol without
// the hook is one class in which every pair may act, so nothing is ever
// skipped.
//
// The chain advances in one of two exact ways, chosen per `run_for` call by
// a cost model (`leap_cost_model`) that reads the current census:
//
//  * Stepping (`advance`): the interactions that fall in inactive class
//    pairs are skipped with one geometric draw, and only the others execute
//    (see "Activity classes" in docs/ARCHITECTURE.md for the exactness
//    argument): each executed one costs one bounded uniform over the
//    may-act pairs (plus one to pick the initiator's class when several are
//    live), two O(log S_c) Fenwick descents and δ, and an agent δ leaves
//    unchanged costs no tree update at all.
//
//  * Table runs (`leap_run`), the batching of Berenbrink et al.
//    ("Simulating population protocols in sub-constant time per
//    interaction", ESA 2020).  Under the uniform pairwise scheduler, long
//    prefixes of the interaction sequence touch pairwise-distinct agents
//    (the birthday problem — the expected prefix is Θ(√n)), and within such
//    a *collision-free run* the interactions commute: a run is fully
//    described by its ordered (initiator-state × responder-state)
//    contingency table, which a run samples directly:
//
//      1. Run length L: one uniform inverted through the closed-form
//         log-survival function of the birthday law
//         (dist::sample_collision_free_run_leap) — O(log L) worst case, O(1)
//         expected.
//      2. Initiator-state counts: one multivariate-hypergeometric draw of L
//         agents over the census (dist::multivariate_hypergeometric).
//      3. Responder-state counts: one MVH draw of L agents over the
//         remaining census.
//      4. The table: a uniform random bijection between the initiator and
//         responder multisets, sampled row-by-row by sequential MVH
//         conditioning.  For a protocol whose `interact` is a template over
//         the generator (sim::delta_enumerable), each nonzero cell first
//         replays δ against an empty script (sim::choice_free_delta): a pair
//         that asks for no random choice applies that one evaluation to the
//         whole cell, any other pair takes one multinomial split over its
//         enumerated outcomes (the randomized-δ group path of
//         sim/group_delta.h).  δ applies per interaction otherwise — so
//         every protocol runs correctly.
//      5. If the run ended in a collision (rather than the caller's budget),
//         the colliding interaction is executed from its exact conditional
//         distribution: a uniform ordered pair of distinct agents
//         conditioned on touching at least one run participant, whose state
//         is its post-run state (both-used / used-fresh / fresh-used).
//
//    Per-run cost is O(occupied) for the margin draws plus O(nonzero²) for
//    the table — independent of L up to the O(σ) ≈ O(n^¼) enumeration
//    inside each mode-centered variate.  bench_e17_leap measures it against
//    stepping (acceptance bar: ≥ 5× on epidemic and three-state at
//    n = 10⁹).
//
// Exactness: the scheduler's interaction sequence is i.i.d. uniform over
// ordered pairs of distinct agents — the same distribution the agent-based
// `sim::simulation` scheduler uses.  Decompose it by the position of the
// first collision: the prefix, conditioned on being collision-free, is a
// uniform without-replacement draw of 2L distinct agents, and because no
// agent appears twice, each interaction's inputs are the agents' pre-run
// states, so only the *multiset* of ordered state pairs matters.  Drawing
// the L initiators, then the L responders, without replacement and pairing
// them by a uniform bijection has exactly that law (exchangeability of
// without-replacement draws), and the colliding interaction is sampled from
// its exact conditional distribution given the set of used agents.
//
// Switching strategies is exact as well: a stepped stretch and a table run
// each advance the chain by its exact transition law over the interactions
// they execute, and a run's end (first collision or budget) is a stopping
// time of the i.i.d. pair sequence, so what follows starts from a correctly
// distributed census with fresh i.i.d. pairs ahead.  The choice reads only
// the current census, n and the caller's budget — never a draw still to
// come.  So the agent backend and this one simulate the same Markov chain:
// convergence times agree in distribution (tests/test_census_backend.cpp,
// tests/test_randomized_delta.cpp), though not trajectory-for-trajectory,
// because the two consume their random streams differently.  A run remains a
// pure function of the seed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/catalogue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "sim/census_store.h"
#include "sim/delta_outcomes.h"
#include "sim/group_delta.h"
#include "sim/random_dist.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

namespace plurality::sim {

/// The census simulator's strategy choice.  Both strategies advance the
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
/// come.  With p = 0 nothing may act, and stepping passes any budget in
/// O(1).  Otherwise S ≤ 2 always takes the table, which keeps the
/// absorbed-census fast path and the two-state rows (epidemic at any n) on
/// it.
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
        if (executed_share == 0.0) return true;
        if (occupied <= 2) return false;
        const auto s = static_cast<double>(occupied);
        const double table = 2.0 * s + std::min(s, mean_run) * std::min(s, 2.0 * mean_run);
        const double stepping = mean_run * executed_share * 2.0 * std::log2(s);
        return stepping < table;
    }

    double mean_run;  ///< L̄ = √(πn/8)
};

/// Drives one protocol instance over one population, census-space.
///
/// API-compatible with `sim::simulation` where the two can be compatible:
/// `step`/`run_for`/`interactions`/`parallel_time`/`population_size`/
/// `visit_states` match, so `sim::converge`, `trace::recorder` and the
/// weighted helpers of sim/population_view.h work unchanged; there is no
/// `agents()` (no per-agent storage), and `count_of` and the occupancy
/// counts stand in for it.
/// `Obs` selects the observability policy (obs/metrics.h): the default
/// follows the PLURALITY_OBS build option; `obs::disabled` compiles every
/// instrument out (the ≤2% overhead gate, bench_e19_obs_overhead,
/// instantiates both).  A table run at n = 10⁹ is ~10 µs of work, so its
/// timers are run-granular — a handful of clock reads per run.  `Retired`
/// is ignored: only the frozen benchmark (consensus_bench/) still passes
/// one.
template <protocol P, class Retired = void, class Obs = obs::default_policy>
    requires census_agent<typename P::agent_t>
class census_simulator {
public:
    using agent_t = typename P::agent_t;
    using entry_t = census_entry<agent_t>;

    /// Takes ownership of the protocol instance and deposits the initial
    /// census, one slot per distinct state in entry order.  Requires a total
    /// population of 2 <= n <= 2^32 − 1 (n(n−1) must fit in 64 bits).
    census_simulator(P proto, const std::vector<entry_t>& initial, std::uint64_t seed)
        : protocol_(std::move(proto)), gen_(seed), population_(total_of(initial)),
          cost_(population_) {
        if (population_ < 2 || population_ > 0xffffffffull)
            throw std::invalid_argument(
                "census-space simulation requires a population of 2 <= n <= 4294967295");
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
            if (entry.count > 0) add_to(slot_for(entry.state), entry.count);
        }
    }

    /// Convenience: compresses a full agent vector into its census.  Useful
    /// in tests that compare the backends on identical configurations;
    /// large-n callers should build census entries directly.
    census_simulator(P proto, const std::vector<agent_t>& agents, std::uint64_t seed)
        : census_simulator(std::move(proto), compress_to_census(agents), seed) {}

    /// Executes exactly one interaction: a stepped one or a table run
    /// truncated to length 1, whichever the cost model picks.
    void step() { run_for(1); }

    /// Executes exactly `count` interactions.  While `leap_cost_model`
    /// prefers the contingency table for the current census, they go one
    /// collision-free run at a time (`leap_run`, the last one truncated to
    /// land on `count` precisely); once it prefers stepping, `advance` takes
    /// the rest of the call.  Deciding again every ~L̄/p stepped interactions
    /// would cut a geometric skip short each time for no gain: on the
    /// tournament the census that favoured stepping keeps favouring it.
    /// The choice is made here rather than inside `leap_run` so the stepping
    /// loop is compiled apart from the table path's large body: inlined
    /// there, GCC 12 leaves the scheduler's two bounded uniforms as
    /// out-of-line calls.
    void run_for(std::uint64_t count) {
        while (count > 0) {
            if (cost_.prefers_stepping(occupied_.size(), executed_share())) {
                advance(count);
                return;
            }
            count -= leap_run(count);
        }
    }

    /// Advances the chain by exactly `count` interactions of the uniform
    /// pairwise scheduler by stepping, counts them, and returns how many of
    /// them called δ; the others count as absorbed.  `run_for` takes this
    /// path wherever the cost model prefers it; tests check the table path
    /// against it, and bench_e15_census and bench_e17_leap measure it.
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
    /// drawn.
    std::uint64_t advance(std::uint64_t count) {
        std::uint64_t left = count;
        std::uint64_t executed = 0;
        while (left > 0 && weight_ > 0) {
            if (weight_ < pairs_) {
                const double unit = static_cast<double>((gen_.next() >> 11) + 1) * 0x1.0p-53;
                const double skip = std::log(unit) * skip_scale();
                if (skip >= static_cast<double>(left)) break;
                left -= static_cast<std::uint64_t>(skip);
            }
            execute();
            --left;
            ++executed;
        }
        metrics_.descents.add(2 * executed);
        metrics_.delta_fallback.add(executed);
        metrics_.absorbed.add(count - executed);
        interactions_ += count;
        return executed;
    }

    [[nodiscard]] std::uint64_t interactions() const noexcept { return interactions_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return static_cast<double>(interactions_) / static_cast<double>(population_);
    }

    /// Visits every *occupied* state as `(state, count)`, in the order of
    /// the occupied list; stops early when `fn` returns false.  The order is
    /// a pure function of the seed, but it is not discovery order: a slot
    /// that fills is appended to the list, and a slot that empties leaves it
    /// by taking the last slot into its place.  The read API shared with
    /// `simulation::visit_states` — predicates written against it
    /// (sim/population_view.h) run on every backend.
    template <class Fn>
    void visit_states(Fn&& fn) const {
        for (const std::uint32_t index : occupied_) {
            const slot& entry = slots_[index];
            if (!fn(entry.state, entry.count)) return;
        }
    }

    [[nodiscard]] std::size_t population_size() const noexcept {
        return static_cast<std::size_t>(population_);
    }

    /// Number of currently occupied states (the S that memory scales with):
    /// the length of the occupied list, an O(1) read.
    [[nodiscard]] std::size_t occupied_states() const noexcept { return occupied_.size(); }

    /// Largest number of simultaneously occupied states so far.
    [[nodiscard]] std::size_t occupied_states_hwm() const noexcept { return occupied_hwm_; }

    /// Number of states seen at any point of the run (dormant slots are kept
    /// so revisited states reuse their slot).
    [[nodiscard]] std::size_t reachable_states() const noexcept { return slots_.size(); }

    /// Count of agents currently in the given state (0 if never reached).
    [[nodiscard]] std::uint64_t count_of(const agent_t& state) const {
        const std::uint32_t at = index_.find(state);
        return at == index_.absent ? 0 : slots_[at].count;
    }

    /// W / n(n−1): the share of ordered agent pairs that fall in may-act
    /// class pairs, i.e. the probability that the next interaction calls δ.
    /// Always 1 for a protocol without activity classes.
    [[nodiscard]] double executed_share() const noexcept {
        return static_cast<double>(weight_) / static_cast<double>(pairs_);
    }

    /// Approximate heap footprint of the census bookkeeping — the O(S)
    /// quantity bench_e15_census reports next to n — and of the table
    /// path's δ outcome cache, which on randomized-δ protocols can be the
    /// largest term (up to 2²⁰ cached state pairs).
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        std::size_t bytes = delta_table_.memory_bytes() + slots_.capacity() * sizeof(slot) +
                            (successor_.capacity() + occupied_.capacity() + live_.capacity()) *
                                sizeof(std::uint32_t) +
                            classes_.capacity() * sizeof(class_tree) +
                            acts_.capacity() * sizeof(std::int8_t) +
                            index_.size() * (sizeof(std::uint32_t) + 2 * sizeof(void*));
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

    /// Test and bench hooks: the state slot `index` < reachable_states()
    /// holds (tests check every reached state against the protocol's
    /// invariants, and bench_e2_state_census counts them), the
    /// number of agents in activity class `cls` (N_c), the may-act weight
    /// W, and the (initiator, responder) slots that the
    /// executed-pair draw selects for `rank` < W — the initiator class and
    /// the rank's offset in its block (`initiator_class_at`), then the
    /// offset as the cell (offset / R_c, offset mod R_c) that the chained
    /// multiply splits a bounded uniform over N_c·R_c into
    /// (`pair_in_class`).  Enumerating every rank enumerates every value of
    /// the draw once.
    [[nodiscard]] const agent_t& slot_state(std::size_t index) const noexcept {
        return slots_[index].state;
    }
    [[nodiscard]] std::uint64_t class_count(std::uint32_t cls) const noexcept {
        return classes_[cls].count;
    }
    [[nodiscard]] std::uint64_t may_act_weight() const noexcept { return weight_; }
    [[nodiscard]] std::pair<std::size_t, std::size_t> executed_pair_at(
        std::uint64_t rank) const noexcept {
        const auto [cls, offset] = initiator_class_at(rank);
        const std::uint64_t row = classes_[cls].row;
        return pair_in_class(cls, offset / row, offset % row);
    }

    /// Appends this run's metrics (end-of-trial cold path; see src/obs/).
    /// Counters, gauges and histograms are deterministic per seed; the
    /// phase timers are wall-clock and surface only in the sidecar's timing
    /// section.
    void collect_metrics(obs::snapshot& out) const {
        if constexpr (Obs::active) {
            out.add_counter(obs::m_interactions, interactions_);
            out.add_counter(obs::m_rng_words, gen_.words());
            out.add_counter(obs::m_runs, metrics_.runs.value());
            out.add_counter(obs::m_collisions, metrics_.collisions.value());
            out.add_counter(obs::m_absorbed_fastpath, metrics_.absorbed.value());
            out.add_counter(obs::m_delta_deterministic, metrics_.delta_deterministic.value());
            out.add_counter(obs::m_delta_grouped, metrics_.delta_grouped.value());
            out.add_counter(obs::m_delta_fallback, metrics_.delta_fallback.value());
            out.add_counter(obs::m_table_hits, delta_table_.hits());
            out.add_counter(obs::m_table_misses, delta_table_.misses());
            // Only runs that stepped report Fenwick work, so a run that
            // stayed on the table path writes no Fenwick counter at all.
            if (metrics_.descents.value() > 0)
                out.add_counter(obs::m_fenwick_descents, metrics_.descents.value());
            out.add_gauge(obs::m_occupied_hwm, occupied_hwm_);
            out.add_gauge(obs::m_reachable_states, slots_.size());
            out.add_histogram(obs::m_run_length, metrics_.run_length);
            // Timers sample every obs::phase_sample_every-th run; scale the
            // accumulated seconds back up to estimate the full phase time.
            constexpr auto scale = static_cast<double>(obs::phase_sample_every);
            out.add_timer(obs::m_phase_run_length, metrics_.t_run_length.seconds() * scale);
            out.add_timer(obs::m_phase_margins, metrics_.t_margins.seconds() * scale);
            out.add_timer(obs::m_phase_table, metrics_.t_table.seconds() * scale);
            out.add_timer(obs::m_phase_collision, metrics_.t_collision.seconds() * scale);
        }
    }

private:
    struct slot {
        agent_t state;
        std::uint64_t count = 0;
        std::uint32_t cls = 0;         ///< activity class of `state` (0 without the hook)
        std::uint32_t position = 0;    ///< position in its class's tree while occupied
        std::uint32_t list_index = 0;  ///< index in `occupied_` while occupied
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

    /// Policy-selected instruments; empty (and free) under obs::disabled.
    struct instrument_set {
        [[no_unique_address]] typename Obs::counter_t descents;  ///< 2 per stepped δ call
        [[no_unique_address]] typename Obs::counter_t absorbed;  ///< skipped as identities
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

    static constexpr std::int8_t unknown_pair = -1;
    static constexpr std::uint32_t no_class = 0xffffffffu;
    static constexpr std::uint32_t no_successor = 0xffffffffu;
    static constexpr std::size_t reserved_positions = 64;

    static std::uint64_t total_of(const std::vector<entry_t>& entries) noexcept {
        std::uint64_t total = 0;
        for (const auto& entry : entries) total += entry.count;
        return total;
    }

    /// Index of the slot holding `state`, appending an empty slot on first
    /// sight.  A new slot's activity class is fixed here, once: it is a
    /// function of the state.
    std::size_t slot_for(const agent_t& state) {
        const std::uint32_t at = index_.find(state);
        if (at != index_.absent) return at;
        slots_.push_back({state, 0, class_of(state)});
        successor_.push_back(no_successor);
        index_.insert(slots_.size() - 1);
        return slots_.size() - 1;
    }

    /// Adds `count` > 0 agents to slot `index`.
    void add_to(std::size_t index, std::uint64_t count) {
        deposit_mass(index, count);
        shift_class(slots_[index].cls, static_cast<std::int64_t>(count));
    }

    /// Removes `count` > 0 agents from slot `index` (at most its count); a
    /// slot that empties leaves the occupied list and gives its tree
    /// position back.
    void remove_from(std::size_t index, std::uint64_t count) {
        withdraw_mass(index, count);
        shift_class(slots_[index].cls, -static_cast<std::int64_t>(count));
    }

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
    /// post-δ state is the same as its slot's state stays where it is: no
    /// tree update, no hash probe.  The changed agents are all withdrawn
    /// before any is deposited: the high-water mark only rises on a deposit,
    /// and once the withdrawals are done each deposit moves the occupied
    /// count toward its end-of-step value, so `occupied_hwm_` ends exactly
    /// where it would had both agents left and re-entered the census
    /// (depositing one agent before withdrawing the other could overshoot by
    /// one).
    void execute() {
        std::size_t initiator = 0;
        std::size_t responder = 0;
        if (sole_ != no_class) {
            // One live class, holding all n agents, that may act with itself
            // (W > 0): the scheduler's own draw over n(n−1), and
            // pair_in_class's walk is a single step, taken inline.  Always
            // the case without activity classes.
            const grid_cell cell = sample_grid_cell(gen_, population_, population_ - 1);
            const class_tree& only = classes_[sole_];
            initiator = locate(only, cell.row);
            responder = locate(only, cell.column + (cell.column >= cell.row ? 1 : 0));
        } else {
            const std::uint32_t c = initiator_class_at(gen_.next_below(weight_)).first;
            const grid_cell cell = sample_grid_cell(gen_, classes_[c].count, classes_[c].row);
            std::tie(initiator, responder) = pair_in_class(c, cell.row, cell.column);
        }
        agent_t u = slots_[initiator].state;
        agent_t v = slots_[responder].state;
        protocol_.interact(u, v, gen_);
        const bool u_moved = !same_state(u, slots_[initiator].state);
        const bool v_moved = !same_state(v, slots_[responder].state);
        if (u_moved) withdraw_mass(initiator, 1);
        if (v_moved) withdraw_mass(responder, 1);
        if (u_moved) deposit(initiator, u);
        if (v_moved) deposit(responder, v);
    }

    /// Adds one agent that left slot `origin` in `state` to its slot,
    /// creating the slot on first sight; the class counts move only when
    /// the agent changed class.  Agents leaving one slot mostly land in the
    /// same next one (a clock's count steps up, a player adopts a side), so
    /// a compare with the state of the slot the last agent from `origin`
    /// went to stands in for the hash probe — ~90% of the time on the
    /// tournament — and picks the very slot the probe would.
    void deposit(std::size_t origin, const agent_t& state) {
        std::size_t index = successor_[origin];
        if (index == no_successor || !same_state(slots_[index].state, state)) {
            index = slot_for(state);
            successor_[origin] = static_cast<std::uint32_t>(index);
        }
        deposit_mass(index, 1);
        const std::uint32_t from = slots_[origin].cls;
        const std::uint32_t to = slots_[index].cls;
        if (from != to) {
            shift_class(from, -1);
            shift_class(to, 1);
        }
    }

    /// Advances the chain by one table run: a collision-free run truncated
    /// at `budget`, plus the colliding interaction when the run ended
    /// naturally.  Returns the number of interactions executed (>= 1).
    std::uint64_t leap_run(std::uint64_t budget) {
        // Absorbed-census fast path: with a single occupied state and a
        // quiescent δ(s, s) = (s, s) — a choice-free evaluation that leaves
        // both agents as they were, or an enumerated outcome distribution
        // whose only outcome is the identity — every future interaction is
        // a no-op: execute the whole budget in O(1).  The skipped draws can
        // never matter: no later interaction can read them into the census.
        if (occupied_.size() == 1) {
            const auto& only = slots_[occupied_[0]];
            bool quiescent = false;
            if constexpr (delta_enumerable<P>) {
                agent_t u = only.state;
                agent_t v = only.state;
                if (choice_free_delta(protocol_, u, v)) {
                    quiescent = same_state(u, only.state) && same_state(v, only.state);
                } else {
                    const auto& entry = delta_table_.lookup(protocol_, only.state, only.state);
                    quiescent = entry.groupable && entry.outcomes.size() == 1 &&
                                same_state(entry.outcomes[0].initiator, only.state) &&
                                same_state(entry.outcomes[0].responder, only.state);
                }
            }
            if (quiescent) {
                interactions_ += budget;
                metrics_.absorbed.add(budget);
                return budget;
            }
        }

        // Snapshot the occupied slots and their counts: all draws below are
        // over the pre-run census, and withdrawing the participants reorders
        // the occupied list.  O(occupied), not O(reachable): protocols that
        // keep discovering fresh states (e.g. the tournament families) would
        // otherwise degrade as dormant slots pile up.
        run_slots_.assign(occupied_.begin(), occupied_.end());
        counts_.clear();
        for (const std::uint32_t i : run_slots_) counts_.push_back(slots_[i].count);

        // Phase boundaries are one clock read each, at *run* granularity, on
        // every phase_sample_every-th run only (~17 ns per read adds up over
        // ~10⁶ runs; the 1-in-64 sample is scaled back up at collection).
        // Under obs::disabled `timed` is constant false and everything folds
        // away.
        const bool timed = Obs::active && metrics_.runs.value() % obs::phase_sample_every == 0;
        const std::uint64_t t0 = timed ? obs::now_ticks() : 0;
        const auto run = dist::sample_collision_free_run_leap(gen_, population_, budget);
        const std::uint64_t pairs = run.length;
        metrics_.runs.add(1);
        metrics_.run_length.record(pairs);
        const std::uint64_t t1 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_run_length.add_ticks(t1 - t0);

        // Margins first, participants never: the L initiators are an MVH
        // draw over the census, the L responders an MVH draw over what
        // remains.  No 2L-sized anything is materialized.
        init_.assign(run_slots_.size(), 0);
        dist::multivariate_hypergeometric(gen_, counts_, pairs, init_);
        for (std::size_t j = 0; j < run_slots_.size(); ++j) counts_[j] -= init_[j];
        resp_.assign(run_slots_.size(), 0);
        dist::multivariate_hypergeometric(gen_, counts_, pairs, resp_);

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
            remove_from(run_slots_[j], taking);
            pslots_.push_back(run_slots_[j]);
            pinit_.push_back(init_[j]);
            presp_.push_back(resp_[j]);
        }

        const std::uint64_t t2 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_margins.add_ticks(t2 - t1);

        // The pair-type table: pair the margins by a uniform random
        // bijection, sampled as sequentially-conditioned rows — one MVH of
        // initiator state j's row over the responders still unpaired; δ
        // applies once per nonzero cell.
        used_.clear();
        for (std::size_t j = 0; j < pslots_.size(); ++j) {
            if (pinit_[j] == 0) continue;
            row_.assign(pslots_.size(), 0);
            dist::multivariate_hypergeometric(gen_, presp_, pinit_[j], row_);
            for (std::size_t t = 0; t < pslots_.size(); ++t) {
                if (row_[t] == 0) continue;
                presp_[t] -= row_[t];
                apply_group(slots_[pslots_[j]].state, slots_[pslots_[t]].state, row_[t]);
            }
        }

        const std::uint64_t t3 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_table.add_ticks(t3 - t2);

        if (run.collided) {
            metrics_.collisions.add(1);
            execute_collision(2 * pairs);
        }

        // Re-deposit every participant's post-state.  Post-states are almost
        // always occupied slots already, so while few are occupied try a
        // short compare scan of the occupied list before paying the hash
        // lookup.
        for (const auto& g : used_.groups()) {
            if (g.count == 0) continue;
            auto listed = occupied_.end();
            if (occupied_.size() <= 16) {
                listed = std::find_if(occupied_.begin(), occupied_.end(), [&](std::uint32_t i) {
                    return same_state(slots_[i].state, g.state);
                });
            }
            add_to(listed != occupied_.end() ? *listed : slot_for(g.state), g.count);
        }

        const std::uint64_t t4 = timed ? obs::now_ticks() : 0;
        if (timed) metrics_.t_collision.add_ticks(t4 - t3);

        const std::uint64_t executed = pairs + (run.collided ? 1 : 0);
        interactions_ += executed;
        return executed;
    }

    /// Applies δ to `count` interactions that all see the ordered state pair
    /// (u, v): once for a pair that asks for no random choice, via one
    /// multinomial split for a pair whose outcome distribution enumerates,
    /// per interaction otherwise (the exact fallback for randomized δ).
    void apply_group(const agent_t& u_state, const agent_t& v_state, std::uint64_t count) {
        if constexpr (delta_enumerable<P>) {
            agent_t u = u_state;
            agent_t v = v_state;
            if (choice_free_delta(protocol_, u, v)) {
                used_.add(u, count);
                used_.add(v, count);
                metrics_.delta_deterministic.add(count);
                return;
            }
            const auto& entry = delta_table_.lookup(protocol_, u_state, v_state);
            if (entry.groupable) {
                delta_table_.apply_group(
                    entry, gen_, count,
                    [this](const agent_t& state, std::uint64_t c) { used_.add(state, c); });
                metrics_.delta_grouped.add(count);
                return;
            }
        }
        for (std::uint64_t c = 0; c < count; ++c) {
            agent_t u = u_state;
            agent_t v = v_state;
            protocol_.interact(u, v, gen_);
            used_.add(u, 1);
            used_.add(v, 1);
        }
        metrics_.delta_fallback.add(count);
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
        const std::uint64_t fresh = population_ - m2;
        const std::uint64_t both_used = m2 * (m2 - 1);
        const std::uint64_t r = gen_.next_below(both_used + 2 * m2 * fresh);
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
        protocol_.interact(u, v, gen_);
        used_.add(u, 1);
        used_.add(v, 1);
    }

    /// Withdraws and returns the state of the *fresh* (non-participant)
    /// agent with zero-based rank `rank` over the current census counts, in
    /// occupied-list order (the participants are all withdrawn, so every
    /// agent still in the census is fresh).
    [[nodiscard]] agent_t census_take_at(std::uint64_t rank) {
        std::uint64_t remaining = rank;
        std::uint32_t pick = occupied_.back();  // unreachable for rank < census total
        for (const std::uint32_t i : occupied_) {
            if (remaining < slots_[i].count) {
                pick = i;
                break;
            }
            remaining -= slots_[i].count;
        }
        const agent_t state = slots_[pick].state;
        remove_from(pick, 1);
        return state;
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
    /// paid only when an agent changes class or a table run moves mass.  A
    /// class turning live computes its row in full; a class going empty
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

    /// Slot-level half of `add_to`: count, tree and occupied list, no class
    /// bookkeeping.  It and `withdraw_mass` are always inlined: the stepped
    /// path (`execute`) is compiled into each scenario's translation unit,
    /// and left to the inliner's budget there, unrelated code in the same
    /// unit decided whether they became calls (1% on the ordered census).
    [[gnu::always_inline]] void deposit_mass(std::size_t index, std::uint64_t count) {
        slot& entry = slots_[index];
        class_tree& tree = classes_[entry.cls];
        if (entry.count == 0) {
            entry.position = take_position(tree, index);
            entry.list_index = static_cast<std::uint32_t>(occupied_.size());
            occupied_.push_back(static_cast<std::uint32_t>(index));
            occupied_hwm_ = std::max(occupied_hwm_, occupied_.size());
        }
        entry.count += count;
        tree_add(tree, entry.position, static_cast<std::int64_t>(count));
    }

    /// Slot-level half of `remove_from`.  A slot that empties hands its
    /// place in the occupied list to the list's last slot.
    [[gnu::always_inline]] void withdraw_mass(std::size_t index, std::uint64_t count) noexcept {
        slot& entry = slots_[index];
        class_tree& tree = classes_[entry.cls];
        entry.count -= count;
        tree_add(tree, entry.position, -static_cast<std::int64_t>(count));
        if (entry.count == 0) {
            const std::uint32_t last = occupied_.back();
            occupied_[entry.list_index] = last;
            slots_[last].list_index = entry.list_index;
            occupied_.pop_back();
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

    P protocol_;
    rng gen_;
    std::uint64_t interactions_ = 0;
    std::uint64_t population_ = 0;  ///< invariant: Σ slot counts (+ agents in flight)
    leap_cost_model cost_;
    std::vector<slot> slots_;  ///< discovery-ordered; dormant slots keep their index
    /// The occupied slots, each at its `list_index`: appended when a slot
    /// fills, swap-removed when it empties.
    std::vector<std::uint32_t> occupied_;
    std::vector<std::uint32_t> successor_;  ///< per slot: where its last changed agent went
    state_index<slot> index_{slots_};  ///< state -> slot; pins the simulator (no copy, no move)
    std::size_t occupied_hwm_ = 0;     ///< max of occupied_.size() so far
    std::uint64_t pairs_ = 0;          ///< n(n−1): ordered pairs of distinct agents
    std::vector<class_tree> classes_;  ///< one per activity class
    std::vector<std::uint32_t> live_;  ///< classes with N_c > 0, in the order they turned live
    std::uint64_t weight_ = 0;         ///< W = Σ over live c of N_c·R_c
    std::uint32_t sole_ = no_class;    ///< the only live class, if just one
    std::vector<std::int8_t> acts_;    ///< C×C may_act memo: 1, 0 or unknown_pair
    std::uint64_t scaled_weight_ = 0;  ///< the W skip_scale_ was computed for
    double skip_scale_ = 0.0;
    [[no_unique_address]] instrument_set metrics_;

    // Per-run scratch of the table path, reused across runs to stay
    // allocation-free on the hot path.
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
};

}  // namespace plurality::sim
