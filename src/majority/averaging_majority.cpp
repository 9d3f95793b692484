#include "majority/averaging_majority.h"

#include "util/math.h"

namespace plurality::majority {

std::int64_t default_amplification(std::uint32_t n) noexcept {
    return std::int64_t{8} << util::ceil_log2(n < 2 ? 2 : n);
}

majority_verdict agent_verdict(const averaging_agent& agent, std::int64_t thr) noexcept {
    if (agent.load >= thr) return majority_verdict::plus;
    if (agent.load <= -thr) return majority_verdict::minus;
    return majority_verdict::tie;
}

majority_verdict population_verdict(std::span<const averaging_agent> agents, std::int64_t thr) noexcept {
    if (agents.empty()) return majority_verdict::undecided;
    const majority_verdict first = agent_verdict(agents.front(), thr);
    for (const auto& a : agents)
        if (agent_verdict(a, thr) != first) return majority_verdict::undecided;
    return first;
}

std::vector<averaging_agent> make_averaging_population(std::uint32_t plus, std::uint32_t minus,
                                                       std::uint32_t zeros,
                                                       std::int64_t amplification) {
    std::vector<averaging_agent> agents;
    agents.reserve(plus + minus + zeros);
    agents.insert(agents.end(), plus, {amplification});
    agents.insert(agents.end(), minus, {-amplification});
    agents.insert(agents.end(), zeros, {0});
    return agents;
}

}  // namespace plurality::majority
