// Tests of the USD approximate-plurality baseline and its positioning
// against the exact protocols (§1, experiment E10).  Whole runs go through
// the registered `baselines/usd` scenario.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/usd_plurality.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_store.h"
#include "sim/simulation.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality::baselines;
using namespace plurality::workload;
using plurality::scenario::scenario_params;
using plurality::sim::trial_executor;

const plurality::scenario::any_scenario& usd() {
    return *plurality::scenario::scenario_registry::instance().find("baselines/usd");
}

/// USD at n agents and k opinions on the bias-1 workload with support gap
/// `bias`, cut off after `time_budget` parallel time.
scenario_params usd_params(std::uint32_t n, std::uint32_t k, std::uint32_t bias,
                           double time_budget) {
    scenario_params params;
    params.n = n;
    params.k = k;
    params.bias = bias;
    params.time_budget = time_budget;
    return params;
}

TEST(UsdPlurality, TransitionRules) {
    usd_plurality_protocol proto;
    plurality::sim::rng gen(1);
    usd_agent a{3};
    usd_agent u{0};
    proto.interact(a, u, gen);
    EXPECT_EQ(u.opinion, 3u);
    usd_agent b{5};
    proto.interact(a, b, gen);
    EXPECT_EQ(b.opinion, 0u);
    EXPECT_EQ(a.opinion, 3u);
    // Undecided initiators do nothing.
    usd_agent u2{0};
    usd_agent c{4};
    proto.interact(u2, c, gen);
    EXPECT_EQ(c.opinion, 4u);
}

TEST(UsdPlurality, ConsensusHelpers) {
    std::vector<usd_agent> agents{{2}, {2}, {2}};
    EXPECT_TRUE(consensus_reached(agents));
    EXPECT_EQ(consensus_opinion(agents), 2u);
    agents.push_back({0});
    EXPECT_FALSE(consensus_reached(agents));
    agents.back().opinion = 3;
    EXPECT_FALSE(consensus_reached(agents));
}

TEST(UsdPlurality, LargeBiasConvergesFastAndCorrectly) {
    const std::uint32_t n = 4096;
    // Bias of n/2 (n/2 + n/4 against n/4): far above the sqrt(n log n)
    // threshold.
    const auto params = usd_params(n, 2, n / 2, 500.0);
    ASSERT_EQ(make_bias_one(n, 2, n / 2).support_of(2), n / 4);
    const auto summary =
        plurality::scenario::run_scenario_trials(usd(), params, 10, 17, trial_executor{1}).summary;
    EXPECT_EQ(summary.correct, summary.trials);
    EXPECT_LT(summary.time_stats.mean, 12.0 * std::log2(n));
}

TEST(UsdPlurality, BiasOneIsEssentiallyACoinFlip) {
    // The gap the paper closes: USD converges fast but picks the wrong
    // opinion about half the time at bias 1.
    const std::uint32_t n = 1024;
    ASSERT_EQ(make_bias_one(n + 1, 2).bias(), 1u);  // odd total => bias exactly 1
    const auto params = usd_params(n + 1, 2, 1, 4000.0);
    const auto summary =
        plurality::scenario::run_scenario_trials(usd(), params, 60, 29, trial_executor{1}).summary;
    EXPECT_GT(summary.correct, summary.trials / 4);
    EXPECT_LT(summary.correct, 3 * summary.trials / 4);
}

TEST(UsdPlurality, ManyOpinionsStillConverge) {
    auto params = usd_params(2048, 8, 1, 2000.0);
    params.workload = "zipf";
    params.zipf_s = 1.5;
    const auto out = usd().run(params, 7);
    EXPECT_TRUE(out.converged);
    ASSERT_EQ(out.metrics.front().name, "winner_opinion");
    EXPECT_NE(out.metrics.front().value, 0.0);
}

TEST(UsdPlurality, PopulationConstructionMatchesDistribution) {
    plurality::sim::rng gen(4);
    const auto dist = make_bias_one(500, 5);
    const auto agents = plurality::sim::expand_census(initial_census(dist), gen);
    std::vector<std::uint32_t> counts(6, 0);
    for (const auto& a : agents) ++counts.at(a.opinion);
    for (std::uint32_t i = 1; i <= 5; ++i) EXPECT_EQ(counts[i], dist.support_of(i));
}

}  // namespace
