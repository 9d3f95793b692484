// Tests for the census-space simulation backend (sim/census_simulator.h)
// and its scenario-layer integration: bookkeeping invariants, per-seed
// determinism, registry-wide convergence on the census backend, and the
// cross-backend distributional agreement the census-space backends'
// correctness argument rests on (agent, census and leap simulate the same
// Markov chain).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "census/state_census.h"
#include "majority/three_state.h"
#include "scenario/json_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_simulator.h"
#include "sim/population_view.h"
#include "sim/trial_executor.h"
#include "test_support.h"

namespace {

using namespace plurality;
using three_sim =
    sim::census_simulator<majority::three_state_protocol, majority::three_state_census_codec>;

using test::alpha_v;
using test::beta_v;
using test::three_state_census;
using test::undecided_v;

TEST(CensusSimulator, ConservesPopulationAcrossInteractions) {
    three_sim sim{{}, three_state_census(60, 40, 0), 7};
    ASSERT_EQ(sim.population_size(), 100u);

    for (int batch = 0; batch < 20; ++batch) {
        sim.run_for(50);
        std::uint64_t total = 0;
        sim.visit_states([&total](const majority::three_state_agent&, std::uint64_t count) {
            total += count;
            return true;
        });
        EXPECT_EQ(total, 100u);
    }
    EXPECT_EQ(sim.interactions(), 1000u);
    EXPECT_DOUBLE_EQ(sim.parallel_time(), 10.0);
    // Three-state dynamics can only ever occupy the three declared states.
    EXPECT_LE(sim.occupied_states(), 3u);
    EXPECT_LE(sim.reachable_states(), 3u);
}

TEST(CensusSimulator, BranchlessLocateMatchesReferenceDescentOnEveryRank) {
    // The branchless cmov+prefetch Fenwick descent and the guarded-loop
    // reference must pick the same slot for every rank — exhaustively, so a
    // boundary slip at a node edge cannot hide.
    three_sim sim{{}, three_state_census(60, 40, 23), 11};
    sim.run_for(500);  // move mass around so slot counts are irregular
    for (std::uint64_t rank = 0; rank < sim.population_size(); ++rank) {
        ASSERT_EQ(sim.locate_rank(rank), sim.locate_rank_reference(rank)) << "rank=" << rank;
    }
}

TEST(CensusSimulator, MatchesIndependentCountedCensusReplay) {
    // Replay the same seed twice: once counting through the simulator's own
    // census, once through the independent census::counted_census, and
    // compare state-by-state.
    three_sim sim{{}, three_state_census(30, 20, 10), 11};
    sim.run_for(500);

    census::counted_census replay;
    sim.visit_states([&replay](const majority::three_state_agent& a, std::uint64_t count) {
        replay.increment(majority::three_state_census_codec::encode(a), count);
        return true;
    });
    EXPECT_EQ(replay.total(), 60u);
    for (const auto opinion : {alpha_v, beta_v, undecided_v}) {
        const majority::three_state_agent probe{opinion};
        EXPECT_EQ(replay.count_of(majority::three_state_census_codec::encode(probe)),
                  sim.count_of(probe));
    }
}

TEST(CensusSimulator, DeterministicPerSeedAndSensitiveToSeed) {
    // Sample the census mid-run (well before the dynamics absorb) so that
    // seed sensitivity is visible in the counts.
    const auto midrun_counts = [](std::uint64_t seed) {
        three_sim sim{{}, three_state_census(500, 450, 50), seed};
        sim.run_for(400);
        return std::array<std::uint64_t, 3>{
            sim.count_of({alpha_v}), sim.count_of({beta_v}), sim.count_of({undecided_v})};
    };
    EXPECT_EQ(midrun_counts(42), midrun_counts(42));
    // Different seeds must diverge somewhere in 400 interactions (equal
    // trajectories for these two seeds would indicate a broken stream).
    EXPECT_NE(midrun_counts(42), midrun_counts(43));
}

TEST(CensusSimulator, AgentVectorConstructorCompressesToCensus) {
    const std::vector<majority::three_state_agent> agents = {
        {alpha_v}, {beta_v}, {alpha_v}, {undecided_v}, {alpha_v}};
    three_sim sim{{}, agents, 3};
    EXPECT_EQ(sim.population_size(), 5u);
    EXPECT_EQ(sim.count_of({alpha_v}), 3u);
    EXPECT_EQ(sim.count_of({beta_v}), 1u);
    EXPECT_EQ(sim.count_of({undecided_v}), 1u);
    EXPECT_EQ(sim.occupied_states(), 3u);
}

TEST(CensusSimulator, OccupiedStatesCounterMatchesVisitScan) {
    // occupied_states() is maintained incrementally (no O(S) scan); it must
    // track the number of visited states exactly as slots drain and refill.
    three_sim sim{{}, three_state_census(500, 450, 0), 19};
    for (int batch = 0; batch < 10; ++batch) {
        sim.run_for(200);
        std::size_t scanned = 0;
        sim.visit_states([&scanned](const majority::three_state_agent&, std::uint64_t) {
            ++scanned;
            return true;
        });
        ASSERT_EQ(sim.occupied_states(), scanned);
    }
}

TEST(CensusSimulator, RejectsPopulationsBelowTwo) {
    EXPECT_THROW((three_sim{{}, three_state_census(1, 0, 0), 1}), std::invalid_argument);
    EXPECT_THROW((three_sim{{}, three_state_census(0, 0, 0), 1}), std::invalid_argument);
}

TEST(CensusSimulator, MemoryScalesWithStatesNotPopulation) {
    // Same protocol, 10^4x the population: the census footprint must not
    // grow with n (same three slots), which is the backend's entire point.
    three_sim small{{}, three_state_census(50, 50, 0), 5};
    three_sim large{{}, three_state_census(500000, 500000, 0), 5};
    small.run_for(100);
    large.run_for(100);
    EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
}

// -- scenario-layer integration ----------------------------------------------

TEST(CensusBackend, EveryScenarioConvergesAtSmallN) {
    for (const auto& s : scenario::scenario_registry::instance().all()) {
        const auto params = test::small_params(s.family());
        const auto outcome = s.run(params, 2026, scenario::backend_kind::census);
        EXPECT_TRUE(outcome.converged) << s.name();
        EXPECT_GT(outcome.interactions, 0u) << s.name();
        for (const auto& m : outcome.metrics) {
            EXPECT_TRUE(std::isfinite(m.value)) << s.name() << "/" << m.name;
        }
    }
}

TEST(CensusBackend, RunIsDeterministicPerSeed) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 300;
    params.bias = 10;
    const auto a = s->run(params, 99, scenario::backend_kind::census);
    const auto b = s->run(params, 99, scenario::backend_kind::census);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_DOUBLE_EQ(a.parallel_time, b.parallel_time);
}

TEST(CensusBackend, JsonReportIsByteIdenticalAcrossThreadCounts) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 400;

    std::string previous;
    for (const std::size_t threads : {1u, 4u}) {
        const sim::trial_executor executor{threads};
        const auto result = scenario::run_scenario_trials(*s, params, 6, 17, executor,
                                                          scenario::backend_kind::census);
        std::ostringstream os;
        scenario::write_json_report(os, *s, params, 17, result,
                                    scenario::backend_kind::census);
        if (!previous.empty()) {
            EXPECT_EQ(previous, os.str());
        }
        previous = os.str();
        EXPECT_NE(previous.find("\"backend\": \"census\""), std::string::npos);
    }
}

// -- cross-backend distributional agreement -----------------------------------
//
// One calibrated agent/census/leap comparison per scenario (see
// tests/test_support.h for how the tolerance is derived).

TEST(CensusBackend, EpidemicBroadcastTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    test::expect_backends_agree(*s, params, 30, 1001);
}

TEST(CensusBackend, ThreeStateMajorityTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 600;
    params.bias = 60;
    test::expect_backends_agree(*s, params, 30, 2002);
}

TEST(CensusBackend, LoadBalanceConservesTotalLoad) {
    const auto* s = scenario::scenario_registry::instance().find("loadbalance/averaging");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 1024;
    const auto outcome = s->run(params, 5, scenario::backend_kind::census);
    ASSERT_TRUE(outcome.converged);
    // correct() checks total-load conservation; the metric exposes it too.
    EXPECT_TRUE(outcome.correct);
    for (const auto& m : outcome.metrics) {
        if (m.name == "total_load") EXPECT_DOUBLE_EQ(m.value, 1024.0);
    }
}

}  // namespace
