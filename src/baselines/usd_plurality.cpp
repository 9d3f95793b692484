#include "baselines/usd_plurality.h"

namespace plurality::baselines {

std::vector<sim::census_entry<usd_agent>> initial_census(
    const workload::opinion_distribution& dist) {
    std::vector<sim::census_entry<usd_agent>> entries;
    for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion) {
        const std::uint32_t support = dist.support_of(opinion);
        if (support > 0) entries.push_back({{opinion}, support});
    }
    return entries;
}

std::vector<sim::census_entry<usd_agent>> binary_census(std::uint64_t alpha, std::uint64_t beta,
                                                        std::uint64_t undecided) {
    return {{{1}, alpha}, {{2}, beta}, {{0}, undecided}};
}

}  // namespace plurality::baselines
