// A census state of the tournament protocols is the agent's bytes, and
// core::plurality_protocol::live_slice keeps them to the paper's state
// (§3.4, Figure 1).  What is left here is a name the frozen benchmark
// (consensus_bench/) still passes to the simulators.
#pragma once

namespace plurality::core {

/// Retired census codec; only the frozen benchmark (consensus_bench/) names it.
struct core_census_codec {};

}  // namespace plurality::core
