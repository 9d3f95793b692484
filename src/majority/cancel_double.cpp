#include "majority/cancel_double.h"

#include "util/math.h"

namespace plurality::majority {

std::uint8_t default_level_cap(std::uint32_t n) noexcept {
    return static_cast<std::uint8_t>(util::ceil_log2(n < 2 ? 2 : n) + 2);
}

std::vector<sim::census_entry<cancel_double_agent>> cancel_double_census(std::uint64_t plus,
                                                                         std::uint64_t minus,
                                                                         std::uint64_t blank) {
    return {{{std::int8_t{1}, std::uint8_t{0}}, plus},
            {{std::int8_t{-1}, std::uint8_t{0}}, minus},
            {{std::int8_t{0}, std::uint8_t{0}}, blank}};
}

}  // namespace plurality::majority
