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

std::vector<sim::census_entry<averaging_agent>> averaging_census(std::uint64_t plus,
                                                                 std::uint64_t minus,
                                                                 std::uint64_t zeros,
                                                                 std::int64_t amplification) {
    return {{{amplification}, plus}, {{-amplification}, minus}, {{0}, zeros}};
}

}  // namespace plurality::majority
