// Canonical state codes for the tournament protocols — the measurement side
// of the paper's state-complexity theorems (§3.4, Figure 1).
//
// An agent's code combines the shared variables with the variables of its
// *current role only*, exactly mirroring the accounting
//
//   |S| = |S_shared| · max{S_clock, S_tracker, S_collector, S_player}
//
// that the space-complexity proof of Theorem 1 uses.  Two encodings exist
// for the player's majority sub-state S_maj:
//
//  * full       — the raw balanced load (what our averaging substitute for
//                 [20] really stores: Θ(n) values),
//  * structural — sign and ⌈log2 |load|⌉ bucket (the O(log n) values a
//                 [20]-style exponent representation holds).
//
// Experiment E2 reports both; the structural census is the apples-to-apples
// comparison against the paper's O(k + log n) bound (see docs/ARCHITECTURE.md on the
// majority substitution).
#pragma once

#include <cstdint>

#include "core/agent.h"
#include "core/config.h"

namespace plurality::core {

enum class census_mode : std::uint8_t { full, structural };

/// Packs the agent's live variables into a collision-free canonical code.
[[nodiscard]] std::uint64_t canonical_code(const core_agent& agent, const protocol_config& cfg,
                                           census_mode mode);

/// Retired census codec; only the frozen benchmark (consensus_bench/) names it.
struct core_census_codec {};

}  // namespace plurality::core
