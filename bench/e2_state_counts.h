// Experiment E2's state counts (bench_e2_state_census), which
// tests/test_integration.cpp checks too: one census-backend run of a
// tournament protocol to consensus, and how many distinct states it reached.
//
//   full       — every state the census reached (`reachable_states()`): the
//                agents' live slices (core::plurality_protocol::live_slice),
//                raw averaging loads included, which take Θ(n) values;
//   structural — the same states with each player's `maj_load` replaced by
//                its sign/exponent bucket, the O(log n) values a [20]-style
//                exact majority holds (docs/ARCHITECTURE.md,
//                "Substitutions").  This is the count to hold against the
//                paper's O(k + log n) bound.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/census_simulator.h"
#include "sim/convergence.h"
#include "util/math.h"
#include "workload/opinion_distribution.h"

namespace plurality::bench {

/// Sign/exponent bucket of a balanced load: 0 for zero, then
/// 2·(1 + ⌈log2 |load|⌉), one more for a negative load.
[[nodiscard]] inline std::int64_t load_bucket(std::int64_t load) noexcept {
    if (load == 0) return 0;
    const std::int64_t magnitude =
        util::ceil_log2(static_cast<std::uint64_t>(load < 0 ? -load : load)) + 1;
    return load > 0 ? 2 * magnitude : 2 * magnitude + 1;
}

struct state_counts {
    std::size_t structural = 0;
    std::size_t full = 0;
    bool converged = false;  ///< every agent a winner within the default time budget
};

/// Runs `cfg` on the census backend from `dist`, seeded with `seed`, until
/// every agent is a winner or the default time budget has passed, and counts
/// the states it reached.
[[nodiscard]] inline state_counts count_states(const core::protocol_config& cfg,
                                               const workload::opinion_distribution& dist,
                                               std::uint64_t seed) {
    sim::census_simulator<core::plurality_protocol> census{
        core::plurality_protocol{cfg}, core::plurality_protocol::initial_census(cfg, dist), seed};
    const auto done = [](const auto& s) { return core::all_winners(s); };
    const bool converged =
        sim::converge(census, done, sim::interaction_budget(cfg.default_time_budget(), cfg.n))
            .converged;
    std::set<std::string> structural;  // the projected states' bytes
    for (std::size_t i = 0; i < census.reachable_states(); ++i) {
        core::core_agent state = census.slot_state(i);
        state.maj_load = load_bucket(state.maj_load);
        structural.emplace(reinterpret_cast<const char*>(&state), sizeof state);
    }
    return {structural.size(), census.reachable_states(), converged};
}

}  // namespace plurality::bench
