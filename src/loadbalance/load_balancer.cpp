#include "loadbalance/load_balancer.h"

#include <stdexcept>
#include <vector>

#include "sim/convergence.h"

namespace plurality::loadbalance {

double measure_balancing_time(std::span<const std::int64_t> initial_loads,
                              std::int64_t target_discrepancy, double budget,
                              std::uint64_t seed) {
    if (initial_loads.size() < 2)
        throw std::invalid_argument("measure_balancing_time: need >= 2 agents");
    std::vector<load_agent> agents(initial_loads.size());
    for (std::size_t i = 0; i < agents.size(); ++i) agents[i].load = initial_loads[i];

    const auto n = static_cast<std::uint32_t>(agents.size());
    sim::simulation<load_balance_protocol> simulation{load_balance_protocol{}, std::move(agents),
                                                      seed};
    const auto balanced = [target_discrepancy](const auto& s) {
        return discrepancy(s) <= target_discrepancy;
    };
    const auto run =
        sim::converge(simulation, balanced, sim::interaction_budget(budget, n), n / 4 + 1);
    return run.converged ? run.parallel_time : -1.0;
}

}  // namespace plurality::loadbalance
