// Tests for the census simulator's `run_for`, which takes table runs
// (collision-free runs sampled as their pair-type contingency table) or
// steps, as its cost model picks (sim/census_simulator.h): exact interaction
// accounting under truncation, bookkeeping invariants, per-seed determinism,
// grouped-δ vs per-pair-fallback equivalence (with choice-free pairs found
// by replaying δ) and the cost model itself.  The scenario layer's census
// runs (`CensusBackend.*`) and the distributional agreement with the agent
// backend and with stepping alone live in tests/test_census_backend.cpp and
// tests/test_randomized_delta.cpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "baselines/usd_plurality.h"
#include "core/plurality_protocol.h"
#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "sim/census_simulator.h"
#include "sim/convergence.h"
#include "sim/delta_outcomes.h"
#include "test_support.h"

namespace {

using namespace plurality;
using baselines::binary_census;
using test::alpha_v;
using test::beta_v;
using test::three_sim;
using test::undecided_v;

std::uint64_t census_total(const three_sim& sim) {
    std::uint64_t total = 0;
    sim.visit_states([&total](const baselines::usd_agent&, std::uint64_t count) {
        total += count;
        return true;
    });
    return total;
}

TEST(LeapCensusSimulator, ConservesPopulationAcrossBatches) {
    three_sim sim{{}, binary_census(60, 40, 0), 7};
    ASSERT_EQ(sim.population_size(), 100u);
    for (int batch = 0; batch < 20; ++batch) {
        sim.run_for(50);
        EXPECT_EQ(census_total(sim), 100u);
    }
    EXPECT_EQ(sim.interactions(), 1000u);
    EXPECT_DOUBLE_EQ(sim.parallel_time(), 10.0);
    EXPECT_LE(sim.occupied_states(), 3u);
    EXPECT_LE(sim.reachable_states(), 3u);
}

TEST(LeapCensusSimulator, RunForExecutesExactInteractionCounts) {
    // The convergence layer's budget accounting relies on run_for truncating
    // the final table run to land on the requested count exactly.
    three_sim sim{{}, binary_census(500, 450, 50), 13};
    std::uint64_t expected = 0;
    for (const std::uint64_t chunk : {1ull, 7ull, 999ull, 2ull, 4096ull, 1ull}) {
        sim.run_for(chunk);
        expected += chunk;
        ASSERT_EQ(sim.interactions(), expected);
        ASSERT_EQ(census_total(sim), 1000u);
    }
}

TEST(LeapCensusSimulator, StepExecutesOneInteraction) {
    three_sim sim{{}, binary_census(30, 20, 10), 3};
    for (int i = 1; i <= 25; ++i) {
        sim.step();
        EXPECT_EQ(sim.interactions(), static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(census_total(sim), 60u);
}

TEST(LeapCensusSimulator, OccupiedStatesMatchesVisitScan) {
    // A table run withdraws its participants (swap-removing every slot it
    // empties from the occupied list) and redeposits them; stepping moves
    // agents one at a time.  After every batch the list must hold exactly
    // the occupied states.  On the tournament at n = 350 `run_for` takes
    // both strategies, and slots empty and refill.
    three_sim three{{}, binary_census(500, 450, 50), 21};
    for (int batch = 0; batch < 10; ++batch) {
        three.run_for(200);
        test::expect_occupied_states_consistent(three);
    }
    const auto start = test::ordered_tournament(350, 4, 21);
    sim::census_simulator<core::plurality_protocol> tournament{start.protocol, start.agents, 21};
    for (int batch = 0; batch < 60; ++batch) {
        tournament.run_for(350 * 50);
        test::expect_occupied_states_consistent(tournament);
    }
    EXPECT_GT(tournament.reachable_states(), tournament.occupied_states_hwm());
    obs::snapshot observed;
    tournament.collect_metrics(observed);
    EXPECT_GT(test::counter_of(observed, obs::m_runs), 0u);
    EXPECT_GT(test::counter_of(observed, obs::m_fenwick_descents), 0u);
}

TEST(LeapCensusSimulator, DeterministicPerSeedAndSensitiveToSeed) {
    const auto midrun_counts = [](std::uint64_t seed) {
        three_sim sim{{}, binary_census(500, 450, 50), seed};
        sim.run_for(400);
        return std::array<std::uint64_t, 3>{
            sim.count_of({alpha_v}), sim.count_of({beta_v}), sim.count_of({undecided_v})};
    };
    EXPECT_EQ(midrun_counts(42), midrun_counts(42));
    EXPECT_NE(midrun_counts(42), midrun_counts(43));
}

// A three-state clone whose `interact` takes only a `sim::rng&`, so it is
// not delta_enumerable: the table path must take the per-pair fallback for
// every contingency-table cell, where three-state itself finds every pair
// choice-free and applies one δ evaluation per cell.  Because three-state δ
// never consumes the RNG, the fallback consumes the exact same stream as the
// grouped path — so the two must produce bitwise-identical trajectories,
// which pins the grouped cell application against the per-pair ground
// truth.
struct fallback_three_state {
    using agent_t = baselines::usd_agent;
    baselines::usd_plurality_protocol inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const noexcept {
        inner.interact(u, v, gen);
    }
};
static_assert(!sim::delta_enumerable<fallback_three_state>);
static_assert(sim::delta_enumerable<baselines::usd_plurality_protocol>);

TEST(LeapCensusSimulator, GroupedDeltaMatchesPerPairFallbackBitwise) {
    using fallback_sim = sim::census_simulator<fallback_three_state>;
    for (const std::uint64_t seed : {1ull, 9ull, 77ull}) {
        three_sim grouped{{}, binary_census(500, 450, 50), seed};
        fallback_sim per_pair{{}, binary_census(500, 450, 50), seed};
        for (int batch = 0; batch < 10; ++batch) {
            grouped.run_for(300);
            per_pair.run_for(300);
            for (const auto opinion : {alpha_v, beta_v, undecided_v}) {
                ASSERT_EQ(grouped.count_of({opinion}), per_pair.count_of({opinion}))
                    << "seed " << seed << " batch " << batch;
            }
        }
    }
}

// A toy whose δ flips a coin on one ordered pair only: an informed
// initiator informs an uninformed responder with probability 1/2, an
// uninformed initiator pulls the rumor from an informed responder for
// certain, and equal states do nothing.  The table path must find the three
// choice-free pairs by replaying δ and move their groups with one
// evaluation, and send only the coin pair (1, 0) through the outcome table.
struct coin_push_agent {
    std::uint32_t informed = 0;
};

struct coin_push_protocol {
    using agent_t = coin_push_agent;
    template <class R>
    void interact(agent_t& u, agent_t& v, R& gen) const noexcept {
        if (u.informed == v.informed) return;
        if (u.informed == 0) {
            u.informed = 1;
        } else if (gen.next_bool()) {
            v.informed = 1;
        }
    }
};

/// The same δ behind a `sim::rng&`-only `interact`: every cell takes the
/// per-pair fallback, one δ call and one coin per interaction.
struct coin_push_per_pair {
    using agent_t = coin_push_agent;
    coin_push_protocol inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const noexcept {
        inner.interact(u, v, gen);
    }
};
static_assert(sim::delta_enumerable<coin_push_protocol>);
static_assert(!sim::delta_enumerable<coin_push_per_pair>);

std::vector<sim::census_entry<coin_push_agent>> coin_push_census(std::uint64_t informed,
                                                                 std::uint64_t uninformed) {
    return {{{1}, informed}, {{0}, uninformed}};
}

TEST(LeapCensusSimulator, ChoiceFreePairsSkipTheOutcomeTable) {
    sim::census_simulator<coin_push_protocol> sim{{}, coin_push_census(10, 1'000'000), 3};
    sim.run_for(2'000'000);
    EXPECT_EQ(sim.count_of({1}) + sim.count_of({0}), 1'000'010u);
    EXPECT_GT(sim.count_of({1}), 10u);
    obs::snapshot observed;
    sim.collect_metrics(observed);
    const auto counter = [&observed](const char* name) {
        return test::counter_of(observed, name);
    };
    EXPECT_GT(counter(obs::m_delta_deterministic), 0u);
    EXPECT_GT(counter(obs::m_delta_grouped), 0u);
    EXPECT_EQ(counter(obs::m_delta_fallback), 0u);
    // Only the coin pair was ever enumerated, and every later cell of it
    // found the cached entry.
    EXPECT_EQ(counter(obs::m_table_misses), 1u);
    EXPECT_GT(counter(obs::m_table_hits), 0u);
    EXPECT_EQ(counter(obs::m_delta_deterministic) + counter(obs::m_delta_grouped) +
                  counter(obs::m_delta_fallback) + counter(obs::m_collisions) +
                  counter(obs::m_absorbed_fastpath),
              counter(obs::m_interactions));
}

/// Parallel time until all 3000 agents are informed, starting from one,
/// through `run_for` with protocol `P` (checked every 300 interactions).
template <class P>
double coin_push_broadcast_time(std::uint64_t seed) {
    sim::census_simulator<P> sim{{}, coin_push_census(1, 2999), seed};
    const auto all_informed = [](const auto& s) { return s.count_of({0}) == 0; };
    return sim::converge(sim, all_informed, 1'000'000'000, 300).parallel_time;
}

TEST(LeapCensusSimulator, MixedCoinAndChoiceFreePairsAgreeWithPerPairFallback) {
    // Grouped δ (choice-free cells in one evaluation, coin cells by one
    // multinomial split) against per-pair δ on the same census, under the
    // calibrated 5σ band.
    constexpr std::size_t trials = 200;
    std::vector<double> grouped, per_pair;
    for (std::size_t i = 0; i < trials; ++i) {
        grouped.push_back(coin_push_broadcast_time<coin_push_protocol>(41000 + i));
        per_pair.push_back(coin_push_broadcast_time<coin_push_per_pair>(47000 + i));
    }
    test::expect_same_mean(grouped, per_pair);
}

TEST(LeapCensusSimulator, ChunkedSteppingAgreesDistributionally) {
    // run_for(a); run_for(b) consumes the stream differently from
    // run_for(a+b) (the first run is truncated at a), but the chain
    // distribution must be unaffected.  Compare mean undecided counts after
    // 600 interactions across many seeds, chunked vs unchunked, under a
    // calibrated 5σ band on the difference of means.
    constexpr std::size_t trials = 60;
    constexpr std::uint64_t horizon = 600;
    const auto undecided_after = [](std::uint64_t seed, bool chunked) {
        three_sim sim{{}, binary_census(600, 500, 0), seed};
        if (chunked) {
            for (std::uint64_t done = 0; done < horizon; done += 40) sim.run_for(40);
        } else {
            sim.run_for(horizon);
        }
        return static_cast<double>(sim.count_of({undecided_v}));
    };
    std::vector<double> unchunked, chunked;
    for (std::size_t i = 0; i < trials; ++i) {
        unchunked.push_back(undecided_after(25000 + i, false));
        chunked.push_back(undecided_after(29000 + i, true));
    }
    test::expect_same_mean(unchunked, chunked);
}

TEST(LeapCostModel, PicksTheCheaperStrategyAtMeasuredPoints) {
    // n = 10⁹: the E17 rows occupy two states and the E18 tournament rows
    // up to ~22, against runs of ~2·10⁴ interactions — the table wins.
    const sim::leap_cost_model billion{1'000'000'000};
    EXPECT_FALSE(billion.prefers_stepping(2, 1.0));
    EXPECT_FALSE(billion.prefers_stepping(22, 1.0));
    // plurality/ordered at n = 350, k = 4: ~100 occupied states against
    // runs of ~11.7 interactions — stepping wins.
    const sim::leap_cost_model small{350};
    EXPECT_NEAR(small.mean_run, 11.72, 0.01);
    EXPECT_TRUE(small.prefers_stepping(100, 1.0));
    // The executed share flips the choice: at S = 5 a table run (~35
    // variates) beats stepping every interaction (~54 Fenwick levels), but
    // not stepping the ~14% of them the tournament's classes let act.
    EXPECT_FALSE(small.prefers_stepping(5, 1.0));
    EXPECT_TRUE(small.prefers_stepping(5, 0.14));
    // One or two occupied states take the table path, whatever n, while
    // some pair may act; when none may, stepping passes any budget at once.
    EXPECT_FALSE(small.prefers_stepping(1, 0.14));
    EXPECT_FALSE(sim::leap_cost_model{2}.prefers_stepping(2, 1.0));
    EXPECT_TRUE(small.prefers_stepping(2, 0.0));
    EXPECT_TRUE(billion.prefers_stepping(1, 0.0));
}

TEST(LeapCensusSimulator, SingleQuiescentStateTakesTheAbsorbedPath) {
    three_sim sim{{}, binary_census(0, 0, 200), 5};
    sim.run_for(1'000'000);
    EXPECT_EQ(sim.interactions(), 1'000'000u);
    EXPECT_EQ(sim.count_of({undecided_v}), 200u);
    obs::snapshot observed;
    sim.collect_metrics(observed);
    EXPECT_EQ(test::counter_of(observed, obs::m_absorbed_fastpath), 1'000'000u);
    EXPECT_EQ(test::counter_of(observed, obs::m_runs), 0u);
    EXPECT_EQ(test::counter_of(observed, obs::m_fenwick_descents), 0u);
}

}  // namespace
