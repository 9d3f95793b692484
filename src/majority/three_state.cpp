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

std::vector<sim::census_entry<three_state_agent>> three_state_census(std::uint64_t alpha,
                                                                     std::uint64_t beta,
                                                                     std::uint64_t undecided) {
    return {{{binary_opinion::alpha}, alpha},
            {{binary_opinion::beta}, beta},
            {{binary_opinion::undecided}, undecided}};
}

}  // namespace plurality::majority
