// End-to-end tests of the unordered variant (Theorem 1 (2)): leader-elected
// challenger selection replaces the opinion ordering (Appendix B).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/census_simulator.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "test_support.h"

namespace {

using namespace plurality::core;
using namespace plurality::workload;
using plurality::sim::converge;
using plurality::test::consensus_trials;

opinion_distribution bias_one_at(std::uint32_t n, std::uint32_t k, std::uint32_t position) {
    auto support = make_bias_one(n, k).support();
    std::swap(support[0], support[position - 1]);
    return opinion_distribution{support};
}

TEST(UnorderedAlgorithm, ConvergesAtBiasOne) {
    const auto cfg = protocol_config::make(algorithm_mode::unordered, 512, 3);
    const auto r = run_to_consensus(cfg, make_bias_one(512, 3), 1);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
}

struct sweep_case {
    std::uint32_t n;
    std::uint32_t k;
    std::uint32_t position;
};

class UnorderedSweep : public ::testing::TestWithParam<sweep_case> {};

TEST_P(UnorderedSweep, PluralityWinsAtBiasOne) {
    const auto [n, k, position] = GetParam();
    const auto dist = bias_one_at(n, k, position);
    ASSERT_EQ(dist.plurality_opinion(), position);
    const auto cfg = protocol_config::make(algorithm_mode::unordered, n, k);

    const auto summary = consensus_trials(cfg, dist, 6, 4000 + n + 10 * k + position);
    EXPECT_GE(summary.correct + 1, summary.trials)
        << "n=" << n << " k=" << k << " position=" << position;
}

INSTANTIATE_TEST_SUITE_P(
    BiasOne, UnorderedSweep,
    ::testing::Values(sweep_case{512, 2, 2}, sweep_case{512, 4, 3}, sweep_case{1024, 4, 1},
                      sweep_case{1024, 4, 4}, sweep_case{1024, 6, 2}, sweep_case{2048, 3, 3}));

TEST(UnorderedAlgorithm, ExactlyOneLeaderEmergesTypically) {
    const std::uint32_t n = 1024;
    const auto cfg = protocol_config::make(algorithm_mode::unordered, n, 4);
    const auto dist = make_bias_one(n, 4);
    std::size_t good = 0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        plurality::sim::rng setup(plurality::sim::derive_seed(seed, plurality::sim::setup_stream));
        plurality_protocol proto{cfg};
        auto population = plurality_protocol::make_population(cfg, dist, setup);
        plurality::sim::simulation<plurality_protocol> s{
            std::move(proto), std::move(population),
            plurality::sim::derive_seed(seed, plurality::sim::run_stream)};
        // Run until the tournament stage is active, then count leaders.
        const auto in_tournaments = [](const auto& sim) {
            std::size_t count = 0;
            for (const auto& a : sim.agents())
                if (a.stage == lifecycle_stage::tournaments) ++count;
            return count > sim.population_size() / 2;
        };
        const auto reached =
            converge(s, in_tournaments, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);
        ASSERT_TRUE(reached.converged);
        s.run_for(50ull * n);  // let the stragglers transition
        if (leader_count(s) == 1) ++good;
    }
    EXPECT_GE(good, 7u);
}

/// Runs `sim` to all_winners and returns the most leaders the readout saw
/// along the way; the test then reads it on the converged configuration.
template <class Sim>
std::size_t most_leaders_before_winning(Sim& sim, const protocol_config& cfg) {
    std::size_t most = 0;
    const auto finished = converge(
        sim, [](const Sim& s) { return all_winners(s); },
        plurality::sim::interaction_budget(cfg.default_time_budget(), cfg.n), 0,
        [&most](const Sim& s) { most = std::max(most, leader_count(s)); });
    EXPECT_TRUE(finished.converged);
    return most;
}

TEST(UnorderedAlgorithm, NoLeaderCountedAfterConvergence) {
    // The elected leader is a tracker; once the winner broadcast converts it
    // into a winner collector it no longer counts, on either backend.
    for (const auto mode : {algorithm_mode::unordered, algorithm_mode::improved}) {
        SCOPED_TRACE(mode == algorithm_mode::unordered ? "unordered" : "improved");
        const auto cfg = protocol_config::make(mode, 256, 3);
        const auto dist = make_bias_one(256, 3);

        plurality::sim::rng setup(5);
        plurality::sim::simulation<plurality_protocol> agents{
            plurality_protocol{cfg}, plurality_protocol::make_population(cfg, dist, setup), 11};
        EXPECT_GE(most_leaders_before_winning(agents, cfg), 1u);
        EXPECT_EQ(leader_count(agents), 0u);

        plurality::sim::census_simulator<plurality_protocol> census{
            plurality_protocol{cfg}, plurality_protocol::initial_census(cfg, dist), 11};
        EXPECT_GE(most_leaders_before_winning(census, cfg), 1u);
        EXPECT_EQ(leader_count(census), 0u);
    }
}

TEST(UnorderedAlgorithm, DefeatedOpinionsAreMarkedParticipated) {
    const std::uint32_t n = 1024;
    const auto cfg = protocol_config::make(algorithm_mode::unordered, n, 4);
    const auto dist = make_bias_one(n, 4);
    plurality::sim::rng setup(9);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 77};
    const auto done = [](const auto& sim) { return all_winners(sim); };
    const auto finished =
        converge(s, done, static_cast<std::uint64_t>(cfg.default_time_budget()) * n);
    ASSERT_TRUE(finished.converged);
    // After convergence everyone is a winner-collector with one opinion.
    EXPECT_NE(consensus_opinion(s), 0u);
}

TEST(UnorderedAlgorithm, SlowerThanOrderedButSameResult) {
    // Theorem 1 (2) vs (1): the unordered variant pays an additive
    // O(log^2 n) for leader election.
    const std::uint32_t n = 1024;
    const std::uint32_t k = 3;
    const auto dist = make_bias_one(n, k);
    double ordered_time = 0.0;
    double unordered_time = 0.0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        const auto ro =
            run_to_consensus(protocol_config::make(algorithm_mode::ordered, n, k), dist, seed);
        const auto ru =
            run_to_consensus(protocol_config::make(algorithm_mode::unordered, n, k), dist, seed);
        ASSERT_TRUE(ro.correct);
        ASSERT_TRUE(ru.correct);
        ordered_time += ro.parallel_time;
        unordered_time += ru.parallel_time;
    }
    EXPECT_GT(unordered_time, ordered_time);
}

TEST(UnorderedAlgorithm, ZipfDistribution) {
    plurality::sim::rng gen(13);
    const auto dist = make_zipf(2048, 8, 1.2, gen);
    const auto cfg = protocol_config::make(algorithm_mode::unordered, 2048, 8);
    const auto r = run_to_consensus(cfg, dist, 5);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.winner_opinion, dist.plurality_opinion());
}

}  // namespace
