// The old name of the census simulator, kept only because the frozen
// benchmark program (consensus_bench/consensus_bench.cpp) includes this
// header and names it.  sim::census_simulator (sim/census_simulator.h) takes
// the table runs this name stood for wherever its cost model prefers them;
// the alias goes with the next change to the benchmark.
#pragma once

#include "obs/metrics.h"
#include "sim/census_simulator.h"
#include "sim/simulation.h"

namespace plurality::sim {

template <protocol P, class Retired = void, class Obs = obs::enabled>
using leap_census_simulator = census_simulator<P, Retired, Obs>;

}  // namespace plurality::sim
