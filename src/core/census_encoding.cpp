#include "core/census_encoding.h"

#include <algorithm>
#include <cmath>

#include "census/state_census.h"
#include "util/math.h"

namespace plurality::core {

namespace {

/// Sign/exponent bucket of a balanced load: 0 for zero, then
/// 1 + ⌈log2 |load|⌉, negated-sign bucket offset for negative loads.
[[nodiscard]] std::uint64_t load_bucket(std::int64_t load) {
    if (load == 0) return 0;
    const std::uint64_t magnitude =
        util::ceil_log2(static_cast<std::uint64_t>(load < 0 ? -load : load)) + 1;
    return load > 0 ? 2 * magnitude : 2 * magnitude + 1;
}

}  // namespace

std::uint64_t canonical_code(const core_agent& agent, const protocol_config& cfg,
                             census_mode mode) {
    census::state_packer packer;

    // -- shared variables (§3.4: role, phase, do-once bits) -------------------
    packer.field(static_cast<std::uint64_t>(agent.role), 4)
        .field(static_cast<std::uint64_t>(agent.stage), 3)
        .field(agent.phase, cfg.phase_modulus())
        .field(agent.once_flags, 4)
        .flag(agent.winner)
        .flag(agent.ever_initiated);

    const std::uint64_t opinion_card = cfg.k + 1;  // 0 = "no opinion"

    switch (agent.role) {
        case agent_role::collector: {
            packer.field(agent.opinion, opinion_card)
                .field(agent.tokens, cfg.token_cap + 1)
                .flag(agent.defender)
                .flag(agent.challenger)
                .flag(agent.participated)
                .field(static_cast<std::uint64_t>(agent.load + static_cast<std::int8_t>(cfg.token_cap)),
                       2 * cfg.token_cap + 1);
            if (cfg.large_k) {
                packer.flag(agent.counting).flag(agent.met_same_opinion);
                // Counting agents track their trigger counter.
                const auto counting_target = static_cast<std::uint64_t>(
                    cfg.counting_factor * (util::ceil_log2(cfg.n) + 1)) + 2;
                packer.field(agent.counting ? agent.count : 0, counting_target);
            }
            if (cfg.mode == algorithm_mode::improved) {
                packer.field(agent.junta_level, cfg.junta_level_cap + 1)
                    .flag(agent.junta_active)
                    .flag(agent.junta_member)
                    .field(agent.junta_p,
                           cfg.junta_hour_length * (cfg.prune_hours + 1) + 1)
                    .field(static_cast<std::uint64_t>(agent.prune_phase +
                                                      static_cast<std::int16_t>(cfg.prune_hours)),
                           cfg.prune_hours + 1);
            }
            break;
        }
        case agent_role::clock: {
            // Counter range: max(init counting target, Ψ).
            const auto init_target = static_cast<std::uint32_t>(std::lround(
                cfg.init_count_factor * static_cast<double>(util::ceil_log2(cfg.n))));
            packer.field(agent.count, std::max(cfg.psi, init_target + 2));
            break;
        }
        case agent_role::tracker: {
            if (cfg.mode == algorithm_mode::ordered) {
                packer.field(agent.tcnt, cfg.k + 2);
            } else {
                packer.flag(agent.candidate)
                    .flag(agent.coin)
                    .flag(agent.saw_one)
                    .flag(agent.is_leader)
                    .flag(agent.finished)
                    .flag(agent.visited_select)
                    .field(agent.le_rounds, cfg.leader_rounds + 1u)
                    .field(agent.cand_opinion, opinion_card)
                    .field(agent.ann_opinion, opinion_card)
                    .field(static_cast<std::uint64_t>(agent.ann_kind), 3)
                    .field(std::min<std::uint32_t>(agent.leader_cycle, cfg.k + 2), cfg.k + 3);
            }
            break;
        }
        case agent_role::player: {
            packer.field(static_cast<std::uint64_t>(agent.po), 3);
            if (mode == census_mode::full) {
                const std::uint64_t amp = static_cast<std::uint64_t>(cfg.majority_amplification);
                const std::uint64_t shifted =
                    static_cast<std::uint64_t>(agent.maj_load + cfg.majority_amplification);
                packer.field(shifted, 2 * amp + 1);
            } else {
                packer.field(load_bucket(agent.maj_load),
                             2ull * (util::ceil_log2(
                                         static_cast<std::uint64_t>(cfg.majority_amplification)) +
                                     2) +
                                 2);
            }
            break;
        }
    }
    return packer.code();
}

}  // namespace plurality::core
