// Multi-trial execution of registered scenarios: the glue between the
// type-erased scenario layer and the seed-indexed trial executor.
//
// The summary is a pure function of (scenario, params, trials, base_seed) —
// trial i always runs the stream derive_seed(base_seed, i) and aggregation
// walks the outcomes in index order, so two runs with equal seeds agree
// bitwise at any thread count (the experiment CLI's JSON documents rely on
// this).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/stats.h"
#include "scenario/scenario.h"
#include "sim/trial_executor.h"

namespace plurality::scenario {

/// Aggregate over a batch of scenario trials.
struct scenario_run_summary {
    std::size_t trials = 0;
    std::size_t converged = 0;
    std::size_t correct = 0;
    analysis::summary_stats time_stats;  ///< parallel time over converged trials
    std::uint64_t total_interactions = 0;
    std::vector<metric> mean_metrics;  ///< per-metric mean over all trials
    /// Per-trial instrumentation merged in index order (counters and
    /// histograms sum, gauges take the max, timers sum — see
    /// obs/snapshot.h).  Count-valued samples inherit the determinism
    /// contract: pure function of (scenario, params, trials, base_seed,
    /// backend), independent of the thread count.
    obs::snapshot observed;
    double trial_wall_seconds_total = 0.0;  ///< sum of per-trial wall times

    [[nodiscard]] double success_rate() const noexcept {
        return trials == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(trials);
    }
};

/// Per-trial outcomes (index == trial == seed stream) plus their summary and
/// the execution-level (non-deterministic) measurements of the whole batch.
struct scenario_run_result {
    std::vector<scenario_outcome> outcomes;
    scenario_run_summary summary;
    double wall_seconds = 0.0;        ///< wall-clock duration of the whole batch
    std::size_t threads = 1;          ///< worker threads the batch ran on: min(executor, trials)
    /// Aggregate-trial-seconds / (wall_seconds × threads): 1.0 = perfectly
    /// parallel, → 0 when workers idle.  0 when the batch was too fast to
    /// time.
    double thread_utilization = 0.0;
};

/// Folds outcomes (in index order) into a summary.  Exposed so tests can
/// aggregate hand-built outcome vectors through the same code path.
[[nodiscard]] scenario_run_summary summarize_outcomes(
    const std::vector<scenario_outcome>& outcomes);

/// Runs `trials` independent executions of `s` under `params`, fanned out
/// over `executor`, on the chosen simulation backend (agent by default; see
/// scenario.h's backend_kind).  The determinism contract extends naturally:
/// the summary is a pure function of (scenario, params, trials, base_seed,
/// backend).
///
/// `options` carries recording hooks only (progress heartbeat interval and
/// label); it never alters outcomes.  Tracing is a single-run affair —
/// `options.trace_csv` is ignored here (use any_scenario::run_traced).
///
/// The per-trial outcome slots are allocated before any trial runs; when
/// they do not fit in memory the call throws a one-line std::runtime_error
/// naming `--trials`, the count and the bytes the slots need.
[[nodiscard]] scenario_run_result run_scenario_trials(
    const any_scenario& s, const scenario_params& params, std::size_t trials,
    std::uint64_t base_seed, const sim::trial_executor& executor,
    backend_kind backend = backend_kind::agent, const run_options& options = {});

}  // namespace plurality::scenario
