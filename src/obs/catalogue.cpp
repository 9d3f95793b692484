#include "obs/catalogue.h"

#include <array>

namespace plurality::obs {

namespace {

constexpr std::array catalogue{
    // -- deterministic counts (all byte-identical across --threads) ---------
    metric_descriptor{m_interactions, "counter", "agent|census",
                      "interactions executed (collision-free runs included)"},
    metric_descriptor{m_rng_words, "counter", "agent|census",
                      "raw 64-bit words drawn from the xoshiro256** stream"},
    metric_descriptor{m_occupied_hwm, "gauge", "census",
                      "high-water mark of simultaneously occupied states"},
    metric_descriptor{m_reachable_states, "gauge", "census",
                      "states seen at any point of the run (dormant slots included)"},
    metric_descriptor{m_fenwick_descents, "counter", "census",
                      "Fenwick-tree rank descents (two per executed interaction)"},
    metric_descriptor{m_runs, "counter", "census",
                      "collision-free runs sampled (truncated runs included)"},
    metric_descriptor{m_collisions, "counter", "census",
                      "runs that ended in a colliding interaction (not the budget)"},
    metric_descriptor{m_absorbed_fastpath, "counter", "census",
                      "interactions advanced as the identity without a delta call (absorbed "
                      "census, or a class pair declared inactive)"},
    metric_descriptor{m_run_length, "histogram", "census",
                      "collision-free run length in pairs, log2-bucketed; mean = sum/count"},
    metric_descriptor{m_delta_deterministic, "counter", "census",
                      "interactions advanced by one delta evaluation per choice-free group"},
    metric_descriptor{m_delta_grouped, "counter", "census",
                      "interactions advanced by the randomized-delta multinomial group path"},
    metric_descriptor{m_delta_fallback, "counter", "census",
                      "interactions advanced by one delta call each (table cells + stepped)"},
    metric_descriptor{m_table_hits, "counter", "census",
                      "outcome-table cache hits (one lookup per group application)"},
    metric_descriptor{m_table_misses, "counter", "census",
                      "outcome-table cache misses (pair enumerated and inserted)"},
    // -- timing (sidecar-only; wall-clock, not deterministic) ---------------
    metric_descriptor{m_phase_run_length, "timer", "census",
                      "time in the run-length draw (closed-form survival inversion)"},
    metric_descriptor{m_phase_margins, "timer", "census",
                      "time in margin sampling (MVH draws + compaction)"},
    metric_descriptor{m_phase_table, "timer", "census",
                      "time in contingency-table rows + grouped delta application"},
    metric_descriptor{m_phase_collision, "timer", "census",
                      "time in colliding-interaction execution + participant re-deposit"},
    metric_descriptor{m_trial_wall, "timing", "runner",
                      "summed wall-clock seconds across all trials"},
    metric_descriptor{m_run_wall, "timing", "runner",
                      "wall-clock seconds for the whole multi-trial run"},
    metric_descriptor{m_threads, "timing", "runner", "trial-executor fan-out used"},
    metric_descriptor{m_thread_utilization, "timing", "runner",
                      "summed trial wall / (run wall x threads), in [0, 1]"},
};

}  // namespace

std::span<const metric_descriptor> metric_catalogue() noexcept { return catalogue; }

}  // namespace plurality::obs
