// Helpers shared by the test suites: the census tests' toy protocol, agents
// laid out from a census, the tournament fixture the census simulator tests
// step, the outcome of a pass/fail trial body and batches of tournament
// runs, the occupied-list invariant check, the per-family small parameter
// table, and the calibrated distributional-agreement checks.
//
// Both backends, and both of the census simulator's strategies, sample the
// interacting pair uniformly over ordered pairs of distinct agents, so for a
// fixed initial configuration the convergence-time *distribution* is
// identical; only the per-seed draws differ.  `expect_means_agree` compares
// mean convergence times over independent trials with a tolerance taken
// from the statistic's own standard error (a ~5σ band plus a small absolute
// slack), NOT from hunting for lucky seeds — re-rolling the RNG streams
// stays inside the band with overwhelming probability.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "baselines/usd_plurality.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "obs/snapshot.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/census_simulator.h"
#include "sim/census_store.h"
#include "sim/convergence.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

namespace plurality::core {

// Readable parameter names in gtest and ctest output.
inline void PrintTo(algorithm_mode mode, std::ostream* os) {
    *os << (mode == algorithm_mode::ordered     ? "ordered"
            : mode == algorithm_mode::unordered ? "unordered"
                                                : "improved");
}

}  // namespace plurality::core

namespace plurality::test {

/// The census tests' toy protocol: the 3-state approximate majority, which
/// is undecided-state dynamics at k = 2 (baselines::binary_census), on the
/// census simulator, and its three opinions.
using three_sim = sim::census_simulator<baselines::usd_plurality_protocol>;
inline constexpr std::uint32_t alpha_v = 1;
inline constexpr std::uint32_t beta_v = 2;
inline constexpr std::uint32_t undecided_v = 0;

/// `census` laid out as shuffled agents (sim::expand_census) for an agent
/// simulation seeded with `seed`.  The shuffle draws from the setup stream
/// the scenario layer derives from a trial seed, apart from the run's.
template <sim::census_agent Agent>
std::vector<Agent> expanded(const std::vector<sim::census_entry<Agent>>& census,
                            std::uint64_t seed) {
    sim::rng setup(sim::derive_seed(seed, scenario::scenario_setup_stream));
    return sim::expand_census(census, setup);
}

/// The benchmark's tournament workload — plurality/ordered with bias 1 —
/// at population n with k opinions: its protocol and initial agents.
struct tournament_start {
    core::plurality_protocol protocol;
    std::vector<core::core_agent> agents;
};
inline tournament_start ordered_tournament(std::uint32_t n, std::uint32_t k,
                                           std::uint64_t seed) {
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, k);
    sim::rng setup(seed);
    return {core::plurality_protocol{cfg},
            core::plurality_protocol::make_population(cfg, workload::make_bias_one(n, k), setup)};
}

/// The outcome of a trial body that only passes or fails: converged and
/// correct both read `success`, so the batch's `time_stats` covers exactly
/// the trials that passed.
inline scenario::scenario_outcome outcome(bool success, double parallel_time = 0.0) {
    scenario::scenario_outcome out;
    out.converged = success;
    out.correct = success;
    out.parallel_time = parallel_time;
    return out;
}

/// Summary of `trials` runs of `core::run_to_consensus(cfg, dist, seed)` on
/// `threads` workers; a trial passes when it finds the plurality.
inline scenario::scenario_run_summary consensus_trials(const core::protocol_config& cfg,
                                                       const workload::opinion_distribution& dist,
                                                       std::size_t trials,
                                                       std::uint64_t base_seed,
                                                       std::size_t threads = 1) {
    return scenario::run_trials(trials, base_seed, sim::trial_executor{threads},
                                [&](std::size_t, std::uint64_t seed) {
                                    const auto r = core::run_to_consensus(cfg, dist, seed);
                                    return outcome(r.correct, r.parallel_time);
                                })
        .summary;
}

/// The bytes of a census state — its identity (sim::same_state) — as an
/// ordered map key; concatenate two for an ordered state pair.
template <sim::census_agent Agent>
std::string state_bytes(const Agent& state) {
    return std::string(reinterpret_cast<const char*>(&state), sizeof(Agent));
}

/// Checks a census-space simulator's occupied list against its counts:
/// `visit_states` sees each occupied state exactly once, with a positive
/// count that `count_of` agrees with; the counts sum to n; and the number
/// of states visited is `occupied_states()`, which is at most its
/// high-water mark.
template <class Sim>
void expect_occupied_states_consistent(const Sim& sim) {
    std::set<std::string> seen;
    std::uint64_t total = 0;
    sim.visit_states([&](const auto& state, std::uint64_t count) {
        EXPECT_TRUE(seen.insert(state_bytes(state)).second) << "a state was visited twice";
        EXPECT_GT(count, 0u);
        EXPECT_EQ(count, sim.count_of(state));
        total += count;
        return true;
    });
    EXPECT_EQ(total, sim.population_size());
    EXPECT_EQ(seen.size(), sim.occupied_states());
    EXPECT_LE(sim.occupied_states(), sim.occupied_states_hwm());
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

/// Value of the counter `name` in `snap`; 0 when the backend did not emit it.
inline std::uint64_t counter_of(const obs::snapshot& snap, const char* name) {
    const obs::sample* found = snap.find(name);
    return found == nullptr ? 0 : found->value;
}

/// Mean parallel time until `done` holds over `trials` runs of the census
/// simulator's stepping loop alone (`advance`), each from `census` on its
/// own seed, checked every n interactions as sim::converge checks `run_for`
/// and cut at `time_budget` parallel time.  `done` is the scenario's
/// convergence predicate.
template <class P, class Done>
backend_sample stepped_mean_time(const P& protocol,
                                 const std::vector<sim::census_entry<typename P::agent_t>>& census,
                                 Done done, double time_budget, std::size_t trials,
                                 std::uint64_t base_seed) {
    constexpr std::uint64_t stepped_stream = 0x57e9ull;
    std::vector<double> times;
    for (std::size_t i = 0; i < trials; ++i) {
        sim::census_simulator<P> stepped{
            protocol, census, sim::derive_seed(sim::derive_seed(base_seed, i), stepped_stream)};
        const std::uint64_t n = stepped.population_size();
        const std::uint64_t budget = sim::interaction_budget(time_budget, n);
        while (!done(stepped) && stepped.interactions() < budget)
            stepped.advance(std::min(n, budget - stepped.interactions()));
        EXPECT_TRUE(done(stepped)) << "stepped trial " << i;
        times.push_back(stepped.parallel_time());
    }
    const auto stats = analysis::summarize(times);
    return {stats.mean, stats.stddev / std::sqrt(static_cast<double>(trials))};
}

/// Pairwise 5σ agreement of mean convergence times on one scenario between
/// the agent backend, the census backend (`run_for`: table runs or
/// stepping, as its cost model picks) and `stepped`, the census
/// simulator's stepping loop alone (stepped_mean_time).
inline void expect_backends_agree(const scenario::any_scenario& s,
                                  const scenario::scenario_params& params, std::size_t trials,
                                  std::uint64_t base_seed, const backend_sample& stepped) {
    using scenario::backend_kind;
    const auto agent = sample_mean_time(s, params, trials, base_seed, backend_kind::agent);
    const auto census = sample_mean_time(s, params, trials, base_seed, backend_kind::census);
    expect_means_agree(agent, census, "agent", "run_for");
    expect_means_agree(agent, stepped, "agent", "advance");
    expect_means_agree(census, stepped, "run_for", "advance");
}

}  // namespace plurality::test
