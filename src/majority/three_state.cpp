#include "majority/three_state.h"

#include <vector>

namespace plurality::majority {

bool consensus_reached(std::span<const three_state_agent> agents) noexcept {
    return consensus_value(agents) != binary_opinion::undecided;
}

binary_opinion consensus_value(std::span<const three_state_agent> agents) noexcept {
    using enum binary_opinion;
    binary_opinion seen = undecided;
    for (const auto& a : agents) {
        if (a.opinion == undecided) return undecided;
        if (seen == undecided) {
            seen = a.opinion;
        } else if (seen != a.opinion) {
            return undecided;
        }
    }
    return seen;
}

std::vector<three_state_agent> make_three_state_population(std::uint32_t alpha_count,
                                                           std::uint32_t beta_count,
                                                           std::uint32_t undecided) {
    std::vector<three_state_agent> agents;
    agents.reserve(alpha_count + beta_count + undecided);
    agents.insert(agents.end(), alpha_count, {binary_opinion::alpha});
    agents.insert(agents.end(), beta_count, {binary_opinion::beta});
    agents.insert(agents.end(), undecided, {binary_opinion::undecided});
    return agents;
}

}  // namespace plurality::majority
