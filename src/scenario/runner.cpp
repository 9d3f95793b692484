#include "scenario/runner.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace plurality::scenario {

namespace {

/// The one-line error for a trial count whose per-trial outcome slots do not
/// fit in memory: it names the flag, the count and the bytes the slots need
/// (trials × sizeof(scenario_outcome), which can exceed 64 bits).
std::runtime_error outcome_slots_too_large(std::size_t trials) {
    constexpr std::size_t slot_bytes = sizeof(scenario_outcome);
    std::string bytes;
    for (auto b = static_cast<__uint128_t>(trials) * slot_bytes; bytes.empty() || b != 0;
         b /= 10) {
        bytes.insert(bytes.begin(), static_cast<char>('0' + static_cast<int>(b % 10)));
    }
    return std::runtime_error("--trials " + std::to_string(trials) + " needs " + bytes +
                              " bytes (" + std::to_string(trials) + " x " +
                              std::to_string(slot_bytes) +
                              "-byte trial outcomes), more than this process can allocate");
}

}  // namespace

scenario_run_summary summarize_outcomes(const std::vector<scenario_outcome>& outcomes) {
    scenario_run_summary summary;
    summary.trials = outcomes.size();

    analysis::accumulator times;
    std::vector<double> metric_sums;
    for (const auto& out : outcomes) {
        if (out.converged) {
            ++summary.converged;
            times.add(out.parallel_time);
        }
        if (out.correct) ++summary.correct;
        summary.total_interactions += out.interactions;
        summary.observed.merge_from(out.observed);
        summary.trial_wall_seconds_total += out.wall_seconds;
        if (metric_sums.empty()) metric_sums.resize(out.metrics.size(), 0.0);
        for (std::size_t m = 0; m < out.metrics.size() && m < metric_sums.size(); ++m) {
            metric_sums[m] += out.metrics[m].value;
        }
    }
    summary.time_stats = times.summary();
    if (!outcomes.empty()) {
        const auto& layout = outcomes.front().metrics;
        for (std::size_t m = 0; m < metric_sums.size() && m < layout.size(); ++m) {
            summary.mean_metrics.push_back(
                {layout[m].name, metric_sums[m] / static_cast<double>(outcomes.size())});
        }
    }
    return summary;
}

namespace detail {

std::vector<scenario_outcome> outcome_slots(std::size_t trials) {
    try {
        return std::vector<scenario_outcome>(trials);
    } catch (const std::length_error&) {
        throw outcome_slots_too_large(trials);
    } catch (const std::bad_alloc&) {
        throw outcome_slots_too_large(trials);
    }
}

scenario_run_result batch_result(std::vector<scenario_outcome> outcomes, double wall_seconds,
                                 std::size_t executor_threads) {
    scenario_run_result result;
    result.summary = summarize_outcomes(outcomes);
    result.outcomes = std::move(outcomes);
    result.wall_seconds = wall_seconds;
    result.threads = std::max<std::size_t>(1, std::min(executor_threads, result.summary.trials));
    if (result.wall_seconds > 0.0) {
        result.thread_utilization = result.summary.trial_wall_seconds_total /
                                    (result.wall_seconds * static_cast<double>(result.threads));
    }
    return result;
}

}  // namespace detail

scenario_run_result run_scenario_trials(const any_scenario& s, const scenario_params& params,
                                        std::size_t trials, std::uint64_t base_seed,
                                        const sim::trial_executor& executor,
                                        backend_kind backend, const run_options& options) {
    run_options untraced = options;
    untraced.trace_csv = nullptr;  // only trial 0 is traced (see runner.h)
    return run_trials(trials, base_seed, executor,
                      [&s, &params, backend, &options, &untraced](std::size_t trial,
                                                                  std::uint64_t seed) {
                          return s.run(params, seed, backend, trial == 0 ? options : untraced);
                      });
}

}  // namespace plurality::scenario
