// E18 — randomized-δ group path: the paper's own tournament protocols on
// the census simulator's table path at n up to 10⁹.
//
// E17 ran the table path on protocols with *deterministic* δ, where a
// collision-free group advances by pure counter moves.  The tournament
// protocols (leader election, exact plurality) consult the RNG inside δ on
// many pairs — per-pair that costs one or more draws per interaction, m
// draws for a group of m.  The table path replays each ordered state pair
// against an empty script first (sim::choice_free_delta): a pair that makes
// no random choice moves its group with that one evaluation, as E17's
// protocols do.  For the others, the randomized-δ group path
// (sim/delta_outcomes.h + sim/group_delta.h) enumerates the pair's exact
// outcome distribution once and advances the whole group with ONE
// multinomial split — the identical Markov chain (per-pair choices are
// i.i.d. within a group), m − 1 δ evaluations cheaper.
//
// Row families:
//
//  * TournamentGroupSpeedup — grouped vs per-pair-fallback (a wrapper whose
//    `interact` takes only a `sim::rng&`, which hides the group path) inside
//    one row on the census simulator: same protocol, same n, same fixed
//    interaction budget.  The `speedup` counter is the acceptance bar: ≥ 5×
//    on both protocols at n = 10⁹.  Budgets are fixed interaction counts
//    (full tournament convergence at n = 10⁹ is ~10¹³ interactions — not a
//    benchmark row), so the rows measure the early small-occupancy regime
//    where group sizes are largest; that is exactly the regime the table
//    path exists for.
//
//  * TournamentLeapBudget — end-to-end scenario-layer runs of the ordered
//    plurality tournament and leader election on the census backend at
//    n = 10⁹ under a parallel-time budget, with wall_seconds and
//    interactions/sec counters: the "paper protocols actually run at a
//    billion agents" demonstration.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/plurality_protocol.h"
#include "leader/leader_election.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_simulator.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;

/// A protocol with grouped δ hidden — its `interact` takes only a
/// `sim::rng&`, so it is not sim::delta_enumerable: every group takes the
/// per-pair fallback, one δ evaluation (and its RNG draws) per interaction.
template <class P>
struct per_pair_only {
    using agent_t = typename P::agent_t;
    P inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const { inner.interact(u, v, gen); }
};

struct leader_rows {
    using protocol_t = leader::leader_election_protocol;
    static constexpr const char* label = "leader";
    static protocol_t make_protocol(std::uint64_t n) {
        const auto n32 = static_cast<std::uint32_t>(n);
        return {leader::default_psi(n32), leader::default_rounds(n32)};
    }
    static std::vector<sim::census_entry<leader::leader_agent>> make_census(std::uint64_t n) {
        return {{leader::leader_agent{}, n}};
    }
};

struct plurality_rows {
    using protocol_t = core::plurality_protocol;
    static constexpr const char* label = "plurality";
    static protocol_t make_protocol(std::uint64_t n) {
        return protocol_t{core::protocol_config::make(core::algorithm_mode::ordered,
                                                      static_cast<std::uint32_t>(n), 2)};
    }
    static std::vector<sim::census_entry<core::core_agent>> make_census(std::uint64_t n) {
        // The tournament's initial census with opinion 1 ahead by 2% of n.
        const auto n32 = static_cast<std::uint32_t>(n);
        const std::uint32_t majority_support = n32 / 2 + n32 / 100;
        return core::plurality_protocol::initial_census(
            make_protocol(n).config(),
            workload::opinion_distribution{{majority_support, n32 - majority_support}});
    }
};

// Small enough that the per-pair-fallback side stays a sub-minute row even
// for the heavyweight plurality δ, large enough that the grouped side's
// wall time is comfortably measurable.
constexpr std::uint64_t tournament_budget = 20'000'000;

/// Grouped vs per-pair fallback inside one row; `speedup` = fallback wall /
/// grouped wall for the identical interaction budget.  This is the E18
/// acceptance counter: ≥ 5 on both protocols at n = 10⁹.
template <class Rows>
void BM_TournamentGroupSpeedup(benchmark::State& state) {
    using protocol_t = typename Rows::protocol_t;
    using grouped_sim = sim::census_simulator<protocol_t>;
    using fallback_sim = sim::census_simulator<per_pair_only<protocol_t>>;

    const auto n = static_cast<std::uint64_t>(state.range(0));
    double grouped_seconds = 0.0;
    double fallback_seconds = 0.0;
    std::size_t occupied = 0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        const std::uint64_t seed = 0xe18000 + n + iteration++;
        const auto entries = Rows::make_census(n);
        const auto proto = Rows::make_protocol(n);
        const auto timed = [](auto&& sim_obj) {
            const auto started = std::chrono::steady_clock::now();
            sim_obj.run_for(tournament_budget);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - started;
            return elapsed.count();
        };
        grouped_sim grouped{proto, entries, seed};
        grouped_seconds += timed(grouped);
        occupied = grouped.occupied_states();
        fallback_seconds += timed(fallback_sim{per_pair_only<protocol_t>{proto}, entries, seed});
    }
    state.counters["population"] = static_cast<double>(n);
    state.counters["occupied_states"] = static_cast<double>(occupied);
    state.counters["speedup"] =
        grouped_seconds > 0.0 ? fallback_seconds / grouped_seconds : 0.0;
    const auto rate = [&](double seconds) {
        return seconds > 0.0 ? static_cast<double>(tournament_budget) *
                                   static_cast<double>(iteration) / seconds
                             : 0.0;
    };
    state.counters["grouped_interactions_per_sec"] = rate(grouped_seconds);
    state.counters["fallback_interactions_per_sec"] = rate(fallback_seconds);
    state.SetLabel(std::string(Rows::label) + "/census");
}

BENCHMARK(BM_TournamentGroupSpeedup<leader_rows>)
    ->Name("BM_TournamentGroupSpeedup/leader_leap")
    ->ArgNames({"n"})
    ->Args({100'000'000})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TournamentGroupSpeedup<plurality_rows>)
    ->Name("BM_TournamentGroupSpeedup/plurality_leap")
    ->ArgNames({"n"})
    ->Args({100'000'000})
    ->Args({1'000'000'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// End-to-end scenario-layer slice of a tournament protocol on the census
/// backend at n = 10⁹: a fixed parallel-time budget (full convergence is
/// Θ(log² n) parallel time ≈ 10¹³ interactions — out of reach for any
/// single-node simulator), reporting wall clock and throughput.
void BM_TournamentLeapBudget(benchmark::State& state) {
    const bool leader_row = state.range(0) != 0;
    const auto* s = scenario::scenario_registry::instance().find(
        leader_row ? "leader/election" : "plurality/ordered");
    if (s == nullptr) {
        state.SkipWithError("scenario not registered");
        return;
    }
    scenario::scenario_params params;
    params.n = 1'000'000'000;
    params.k = 2;
    params.time_budget = 0.05;  // parallel time: 5 × 10⁷ interactions

    std::uint64_t total_interactions = 0;
    double total_seconds = 0.0;
    std::uint64_t iteration = 0;
    for (auto _ : state) {
        const auto started = std::chrono::steady_clock::now();
        const auto result =
            scenario::run_scenario_trials(*s, params, 1, 0xe18900 + iteration++,
                                          bench::shared_executor(), scenario::backend_kind::census);
        const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
        total_interactions += result.summary.total_interactions;
        total_seconds += elapsed.count();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total_interactions));
    state.counters["population"] = 1e9;
    state.counters["interactions_per_sec"] =
        total_seconds > 0.0 ? static_cast<double>(total_interactions) / total_seconds : 0.0;
    state.counters["wall_seconds"] =
        iteration > 0 ? total_seconds / static_cast<double>(iteration) : 0.0;
    state.SetLabel(leader_row ? "leader/election@census" : "plurality/ordered@census");
}
BENCHMARK(BM_TournamentLeapBudget)
    ->ArgNames({"scenario"})
    ->Args({0})
    ->Args({1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
