#include "sim/trial_executor.h"

namespace plurality::sim {

trial_summary aggregate_trials(std::span<const trial_outcome> outcomes) {
    trial_summary summary;
    summary.trials = outcomes.size();
    analysis::accumulator times;
    for (const trial_outcome& out : outcomes) {
        if (out.success) {
            ++summary.successes;
            times.add(out.parallel_time);
        }
        summary.total_interactions += out.interactions;
    }
    summary.time_stats = times.summary();
    return summary;
}

}  // namespace plurality::sim
