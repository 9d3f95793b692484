#include "epidemic/epidemic.h"

#include <stdexcept>
#include <vector>

#include "sim/convergence.h"

namespace plurality::epidemic {

double measure_broadcast_time(std::uint32_t n, std::uint32_t sources, std::uint64_t seed) {
    if (n < 2 || sources == 0 || sources > n)
        throw std::invalid_argument("measure_broadcast_time: need n >= 2, 1 <= sources <= n");
    std::vector<epidemic_agent> agents(n);
    for (std::uint32_t i = 0; i < sources; ++i) agents[i] = {true, 1};

    sim::simulation<epidemic_protocol> simulation{epidemic_protocol{}, std::move(agents), seed};
    // Broadcast finishes in Θ(n log n) interactions w.h.p.; 64 n log2 n is a
    // generous safety budget, and hitting it signals a bug.
    const std::uint64_t budget = 64ull * n * (64 - __builtin_clzll(n));
    const auto run = sim::converge(
        simulation, [](const auto& s) { return all_informed(s); }, budget, n / 4 + 1);
    if (!run.converged)
        throw std::runtime_error("measure_broadcast_time: epidemic did not complete");
    return run.parallel_time;
}

}  // namespace plurality::epidemic
