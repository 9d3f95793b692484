#include "sim/trial_executor.h"

namespace plurality::sim {

trial_executor::trial_executor(std::size_t threads)
    : threads_(threads == 0 ? thread_pool::default_thread_count() : threads) {
    if (threads_ > 1) pool_ = std::make_unique<thread_pool>(threads_);
}

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
