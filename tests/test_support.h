// Helpers shared by the test suites: the three-state census fixture the
// census-space backend tests step, the per-family small parameter table,
// and the calibrated distributional-agreement checks.
//
// All backends sample the interacting pair uniformly over ordered pairs of
// distinct agents, so for a fixed initial configuration the
// convergence-time *distribution* is identical; only the per-seed draws
// differ.  `expect_means_agree` compares mean convergence times over
// independent trials with a tolerance taken from the statistic's own
// standard error (a ~5σ band plus a small absolute slack), NOT from hunting
// for lucky seeds — re-rolling the RNG streams stays inside the band with
// overwhelming probability.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "majority/three_state.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/census_store.h"
#include "sim/trial_executor.h"

namespace plurality::test {

inline constexpr majority::binary_opinion alpha_v = majority::binary_opinion::alpha;
inline constexpr majority::binary_opinion beta_v = majority::binary_opinion::beta;
inline constexpr majority::binary_opinion undecided_v = majority::binary_opinion::undecided;

/// Initial three-state census: `alpha`, `beta` and `undecided` agents.
inline std::vector<sim::census_entry<majority::three_state_agent>> three_state_census(
    std::uint64_t alpha, std::uint64_t beta, std::uint64_t undecided) {
    return {{{alpha_v}, alpha}, {{beta_v}, beta}, {{undecided_v}, undecided}};
}

/// The means of two equally sized samples of a statistic agree within a 5σ
/// band (plus one unit of absolute slack) on their difference.
inline void expect_same_mean(const std::vector<double>& a, const std::vector<double>& b) {
    ASSERT_EQ(a.size(), b.size());
    const auto trials = static_cast<double>(a.size());
    double sum_a = 0.0, sum_b = 0.0, sq_a = 0.0, sq_b = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum_a += a[i];
        sq_a += a[i] * a[i];
        sum_b += b[i];
        sq_b += b[i] * b[i];
    }
    const double mean_a = sum_a / trials;
    const double mean_b = sum_b / trials;
    const double var_a = sq_a / trials - mean_a * mean_a;
    const double var_b = sq_b / trials - mean_b * mean_b;
    const double band = 5.0 * std::sqrt((var_a + var_b) / trials) + 1.0;
    EXPECT_NEAR(mean_a, mean_b, band);
}

/// Small-but-safe parameters per family: sizes where every protocol
/// converges deterministically fast, with biases comfortably inside each
/// protocol's w.h.p. regime where convergence (not correctness) needs it.
inline scenario::scenario_params small_params(const std::string& family) {
    scenario::scenario_params p;
    if (family == "plurality") {
        p.n = 512;
        p.k = 2;
    } else if (family == "baselines") {
        p.n = 257;
        p.k = 3;
    } else if (family == "majority") {
        p.n = 300;
        p.bias = 10;
    } else if (family == "epidemic") {
        p.n = 512;
    } else if (family == "leader") {
        p.n = 256;
    } else {  // loadbalance
        p.n = 512;
    }
    return p;
}

/// Mean convergence time over a block of trials, with its standard error.
struct backend_sample {
    double mean = 0.0;
    double stderr_mean = 0.0;
};

inline backend_sample sample_mean_time(const scenario::any_scenario& s,
                                       const scenario::scenario_params& params,
                                       std::size_t trials, std::uint64_t base_seed,
                                       scenario::backend_kind backend) {
    const sim::trial_executor executor{1};
    const auto result =
        scenario::run_scenario_trials(s, params, trials, base_seed, executor, backend);
    EXPECT_EQ(result.summary.converged, trials) << scenario::backend_name(backend);
    const auto& stats = result.summary.time_stats;
    return {stats.mean, stats.stddev / std::sqrt(static_cast<double>(trials))};
}

inline void expect_means_agree(const backend_sample& left, const backend_sample& right,
                               const char* left_name, const char* right_name) {
    const double difference = std::abs(left.mean - right.mean);
    const double combined = std::sqrt(left.stderr_mean * left.stderr_mean +
                                      right.stderr_mean * right.stderr_mean);
    EXPECT_LE(difference, 5.0 * combined + 0.75)
        << left_name << " mean " << left.mean << " vs " << right_name << " mean " << right.mean
        << " (combined stderr " << combined << ")";
}

/// Pairwise 5σ agreement of mean convergence times across the agent, census
/// and leap backends on one scenario.
inline void expect_backends_agree(const scenario::any_scenario& s,
                                  const scenario::scenario_params& params, std::size_t trials,
                                  std::uint64_t base_seed) {
    using scenario::backend_kind;
    const auto agent = sample_mean_time(s, params, trials, base_seed, backend_kind::agent);
    const auto census = sample_mean_time(s, params, trials, base_seed, backend_kind::census);
    const auto leap = sample_mean_time(s, params, trials, base_seed, backend_kind::leap);
    expect_means_agree(agent, census, "agent", "census");
    expect_means_agree(agent, leap, "agent", "leap");
    expect_means_agree(census, leap, "census", "leap");
}

}  // namespace plurality::test
