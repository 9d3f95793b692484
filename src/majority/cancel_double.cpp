#include "majority/cancel_double.h"

#include "util/math.h"

namespace plurality::majority {

std::uint8_t default_level_cap(std::uint32_t n) noexcept {
    return static_cast<std::uint8_t>(util::ceil_log2(n < 2 ? 2 : n) + 2);
}

std::int64_t scaled_token_sum(std::span<const cancel_double_agent> agents,
                              std::uint8_t level_cap) noexcept {
    std::int64_t sum = 0;
    for (const auto& a : agents) {
        if (a.sign == 0) continue;
        sum += static_cast<std::int64_t>(a.sign) << (level_cap - a.level);
    }
    return sum;
}

int decided_sign(std::span<const cancel_double_agent> agents) noexcept {
    int seen = 0;
    for (const auto& a : agents) {
        if (a.sign == 0) continue;
        if (seen == 0) {
            seen = a.sign;
        } else if (seen != a.sign) {
            return 0;
        }
    }
    return seen;
}

std::vector<sim::census_entry<cancel_double_agent>> cancel_double_census(std::uint64_t plus,
                                                                         std::uint64_t minus,
                                                                         std::uint64_t blank) {
    return {{{std::int8_t{1}, std::uint8_t{0}}, plus},
            {{std::int8_t{-1}, std::uint8_t{0}}, minus},
            {{std::int8_t{0}, std::uint8_t{0}}, blank}};
}

}  // namespace plurality::majority
