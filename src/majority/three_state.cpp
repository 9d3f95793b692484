#include "majority/three_state.h"

#include <vector>

namespace plurality::majority {

std::vector<sim::census_entry<three_state_agent>> three_state_census(std::uint64_t alpha,
                                                                     std::uint64_t beta,
                                                                     std::uint64_t undecided) {
    return {{{binary_opinion::alpha}, alpha},
            {{binary_opinion::beta}, beta},
            {{binary_opinion::undecided}, undecided}};
}

}  // namespace plurality::majority
