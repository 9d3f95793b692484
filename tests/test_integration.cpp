// Cross-module integration tests: state census over full runs (Theorem 1's
// O(k + log n) accounting), cross-mode agreement, and failure-injection
// style workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../bench/e2_state_counts.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/convergence.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality::core;
using namespace plurality::workload;
using plurality::bench::count_states;
using plurality::sim::converge;

TEST(Integration, StructuralStateCountScalesLinearlyInK) {
    // Theorem 1 (1): O(k + log n) states.  With n fixed, growing k should
    // add ~linearly many states, nowhere near the Ω(k²) of always-correct
    // protocols [29].
    const std::uint32_t n = 512;
    std::vector<double> ks;
    std::vector<double> states;
    for (std::uint32_t k : {2u, 4u, 8u, 16u}) {
        const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);
        const auto counts = count_states(cfg, make_bias_one(n, k), 300 + k);
        EXPECT_TRUE(counts.converged);
        ks.push_back(k);
        states.push_back(static_cast<double>(counts.structural));
    }
    // Quadratic growth would multiply by ~64 from k=2 to k=16; linear growth
    // by at most ~8.  Leave generous slack.
    EXPECT_LT(states[3], 16.0 * states[0]);
    // And it must actually grow with k (collector opinions, tracker tcnt).
    EXPECT_GT(states[3], states[0]);
}

TEST(Integration, FullCensusShowsTheMajoritySubstitutionCost) {
    // The averaging majority trades states for time: the full census (raw
    // loads) strictly exceeds the structural census (exponent buckets).
    const std::uint32_t n = 512;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 4);
    const auto counts = count_states(cfg, make_bias_one(n, 4), 17);
    EXPECT_TRUE(counts.converged);
    EXPECT_GT(counts.full, counts.structural);
}

TEST(Integration, ImprovedCensusStaysTheSizeOfUnordered) {
    // After init an improved agent is an unordered one: live_slice drops
    // the pruning stage's junta state when it leaves init.  A field the
    // slice wrongly keeps multiplies improved's reachable states: while the
    // junta fields stayed, improved reached 53 909 here against 3 992.
    constexpr std::uint32_t n = 512;
    const auto largest_census = [](algorithm_mode mode) {
        const auto cfg = protocol_config::make(mode, n, 2);
        std::size_t largest = 0;
        for (std::uint64_t trial = 0; trial < 3; ++trial) {
            const auto counts =
                count_states(cfg, make_bias_one(n, 2), plurality::sim::derive_seed(7, trial));
            EXPECT_TRUE(counts.converged);
            largest = std::max(largest, counts.full);
        }
        return largest;
    };
    EXPECT_LE(largest_census(algorithm_mode::improved),
              2 * largest_census(algorithm_mode::unordered));
}

TEST(Integration, AllThreeModesAgreeOnTheWinner) {
    const std::uint32_t n = 1024;
    const std::uint32_t k = 4;
    const auto dist = make_bias_one(n, k, 40);  // clear plurality
    for (auto mode :
         {algorithm_mode::ordered, algorithm_mode::unordered, algorithm_mode::improved}) {
        const auto cfg = protocol_config::make(mode, n, k);
        const auto r = run_to_consensus(cfg, dist, 55);
        EXPECT_TRUE(r.converged) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(r.winner_opinion, dist.plurality_opinion())
            << "mode " << static_cast<int>(mode);
    }
}

TEST(Integration, KAtTheoremLimit) {
    // Theorem 1 assumes k <= n/40; exercise near that boundary.
    const std::uint32_t n = 1024;
    const std::uint32_t k = 25;  // n/40 ≈ 25.6
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, k);
    const auto r = run_to_consensus(cfg, make_bias_one(n, k), 3);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.correct);
}

TEST(Integration, AdversarialTieHeavyWorkload) {
    // Every non-plurality opinion ties with the next: tournaments must
    // repeatedly resolve ties in the defender's favour without ever losing
    // the true plurality.
    const std::uint32_t n = 1029;
    std::vector<std::uint32_t> support{207, 206, 206, 205, 205};
    const opinion_distribution dist{support};
    ASSERT_EQ(dist.bias(), 1u);
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 5);
    // Full-protocol trials fan out across the executor; run_to_consensus is
    // a pure function of (cfg, dist, seed), and the summary is bitwise
    // identical to a sequential run by the executor's determinism contract.
    const auto summary =
        plurality::sim::trial_executor{4}.run(5, 900, [&](std::uint64_t seed) {
            plurality::sim::trial_outcome out;
            out.success = run_to_consensus(cfg, dist, seed).correct;
            return out;
        });
    EXPECT_GE(summary.successes, 4u);
}

TEST(Integration, WinnerBroadcastReachesEveryAgent) {
    const std::uint32_t n = 512;
    const auto cfg = protocol_config::make(algorithm_mode::ordered, n, 3);
    const auto dist = make_bias_one(n, 3);
    plurality::sim::rng setup(6);
    plurality_protocol proto{cfg};
    auto population = plurality_protocol::make_population(cfg, dist, setup);
    plurality::sim::simulation<plurality_protocol> s{std::move(proto), std::move(population), 61};
    const auto done = [](const auto& sim) { return all_winners(sim); };
    ASSERT_TRUE(
        converge(s, done, static_cast<std::uint64_t>(cfg.default_time_budget()) * n).converged);
    for (const auto& a : s.agents()) {
        EXPECT_TRUE(a.winner);
        EXPECT_EQ(a.role, agent_role::collector);
        EXPECT_EQ(a.opinion, 1u);
    }
}

TEST(Integration, ResultReportsInteractionsAndTimeConsistently) {
    const auto cfg = protocol_config::make(algorithm_mode::ordered, 512, 2);
    const auto r = run_to_consensus(cfg, make_bias_one(512, 2), 8);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.parallel_time, static_cast<double>(r.interactions) / 512.0, 1e-9);
}

}  // namespace
