// Soundness of the tournament protocols' activity-class declaration
// (core::plurality_protocol::activity_class / may_act, the optional hook of
// sim/census_store.h).  The census-space backends skip every interaction
// whose class pair is declared inactive without calling δ, so a declaration
// that is wrong anywhere silently freezes part of the dynamics.  Two checks,
// in all three modes:
//
//  * census: at the convergence checks of small census runs, every ordered
//    pair of occupied states whose class pair is declared inactive must
//    enumerate (sim/delta_outcomes.h) to exactly one outcome — the pair
//    itself — at probability 1;
//  * agent loop: a plain agent-based run that evaluates δ on *every*
//    interaction must never see a declared-inactive pair change either
//    agent.
//
// The census check covers the states a skipping run reaches, the agent
// check those an unskipped run reaches.  A protocol that adds the hook
// should copy both.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "core/census_encoding.h"
#include "core/plurality_protocol.h"
#include "sim/census_simulator.h"
#include "sim/convergence.h"
#include "sim/delta_outcomes.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "workload/opinion_distribution.h"

namespace plurality::core {

// Readable parameter names in gtest and ctest output.
void PrintTo(algorithm_mode mode, std::ostream* os) {
    *os << (mode == algorithm_mode::ordered     ? "ordered"
            : mode == algorithm_mode::unordered ? "unordered"
                                                : "improved");
}

}  // namespace plurality::core

namespace {

using namespace plurality;
using core::algorithm_mode;
using core::core_agent;

constexpr std::uint32_t population = 128;
constexpr std::uint32_t opinions = 3;
constexpr std::uint64_t seeds[] = {1, 2, 3};

bool same_bytes(const core_agent& a, const core_agent& b) {
    return std::memcmp(&a, &b, sizeof(core_agent)) == 0;
}

bool declared_inactive(const core::plurality_protocol& protocol, const core_agent& u,
                       const core_agent& v) {
    return !protocol.may_act(protocol.activity_class(u), protocol.activity_class(v));
}

std::vector<core_agent> initial_agents(const core::protocol_config& cfg, std::uint64_t seed) {
    sim::rng setup(seed);
    return core::plurality_protocol::make_population(
        cfg, workload::make_bias_one(cfg.n, cfg.k), setup);
}

bool all_winners(const std::vector<core_agent>& agents) {
    for (const auto& a : agents)
        if (!a.winner) return false;
    return true;
}

/// Runs one census trial and checks every declared-inactive ordered pair of
/// co-occupied states against δ's exact outcome list.  Returns the number
/// of distinct pairs checked.
std::uint64_t check_census_run(algorithm_mode mode, std::uint64_t seed) {
    using census_sim = sim::census_simulator<core::plurality_protocol, core::core_census_codec>;
    using key_t = core::core_census_codec::key_t;
    const auto cfg = core::protocol_config::make(mode, population, opinions);
    const core::plurality_protocol protocol{cfg};
    census_sim sim{protocol, initial_agents(cfg, seed), seed};

    std::set<std::pair<key_t, key_t>> checked;
    std::vector<sim::delta_outcome<core_agent>> outcomes;
    std::vector<core_agent> states;
    bool sound = true;
    const auto check = [&](const census_sim& s) {
        states.clear();
        bool converged = true;
        s.visit_states([&](const core_agent& a, std::uint64_t) {
            states.push_back(a);
            converged = converged && a.winner;
            return true;
        });
        for (const core_agent& u : states) {
            for (const core_agent& v : states) {
                if (!declared_inactive(protocol, u, v)) continue;
                const auto keys = std::make_pair(core::core_census_codec::encode(u),
                                                 core::core_census_codec::encode(v));
                if (!checked.insert(keys).second) continue;
                const bool listed = protocol.delta_outcomes(u, v, outcomes);
                const bool identity = listed && outcomes.size() == 1 &&
                                      outcomes[0].probability == 1.0 &&
                                      same_bytes(outcomes[0].initiator, u) &&
                                      same_bytes(outcomes[0].responder, v);
                EXPECT_TRUE(identity)
                    << ::testing::PrintToString(mode) << " seed " << seed << ": classes ("
                    << protocol.activity_class(u) << ", " << protocol.activity_class(v)
                    << ") are declared inactive, but δ is not the identity on this pair ("
                    << (listed ? outcomes.size() : 0) << " outcomes)";
                sound = sound && identity;
            }
        }
        return converged || !sound;
    };
    sim::converge(sim, check, sim::interaction_budget(cfg.default_time_budget(), population),
                  8 * population);
    return checked.size();
}

/// Runs one agent-based trial, evaluating δ on every interaction, and checks
/// that no declared-inactive pair ever changes an agent.  Returns the number
/// of declared-inactive interactions seen.
std::uint64_t check_agent_run(algorithm_mode mode, std::uint64_t seed) {
    const auto cfg = core::protocol_config::make(mode, population, opinions);
    const core::plurality_protocol protocol{cfg};
    std::vector<core_agent> agents = initial_agents(cfg, seed);
    sim::rng gen(seed);
    const std::uint64_t budget =
        sim::interaction_budget(cfg.default_time_budget(), population);
    std::uint64_t inactive = 0;
    for (std::uint64_t step = 1; step <= budget; ++step) {
        const sim::interaction_pair pair = sim::sample_pair(gen, population);
        core_agent& u = agents[pair.initiator];
        core_agent& v = agents[pair.responder];
        const core_agent u_before = u;
        const core_agent v_before = v;
        const bool skip = declared_inactive(protocol, u, v);
        protocol.interact(u, v, gen);
        if (skip) {
            ++inactive;
            if (!same_bytes(u, u_before) || !same_bytes(v, v_before)) {
                ADD_FAILURE() << ::testing::PrintToString(mode) << " seed " << seed
                              << ": declared-inactive classes ("
                              << protocol.activity_class(u_before) << ", "
                              << protocol.activity_class(v_before) << ") changed an agent at "
                              << "interaction " << step;
                return inactive;
            }
        }
        if (step % population == 0 && all_winners(agents)) break;
    }
    return inactive;
}

class ActivityClasses : public ::testing::TestWithParam<algorithm_mode> {};

TEST_P(ActivityClasses, InactivePairsOfCensusStatesEnumerateToTheIdentity) {
    std::uint64_t checked = 0;
    for (const std::uint64_t seed : seeds) checked += check_census_run(GetParam(), seed);
    // Most class pairs of the tournaments stage are inactive: the check
    // must have had plenty to look at.
    EXPECT_GT(checked, 1000u);
}

TEST_P(ActivityClasses, AgentLoopNeverSeesAnInactivePairChangeAnAgent) {
    std::uint64_t inactive = 0;
    for (const std::uint64_t seed : seeds) inactive += check_agent_run(GetParam(), seed);
    EXPECT_GT(inactive, 100'000u);
}

TEST_P(ActivityClasses, EveryStateHasAClassInRange) {
    const auto cfg = core::protocol_config::make(GetParam(), population, opinions);
    const core::plurality_protocol protocol{cfg};
    // Two classes outside the tournaments stage, five kinds per phase in it.
    EXPECT_EQ(protocol.activity_classes(), 2 + 5 * cfg.phase_modulus());
    core_agent a;
    EXPECT_EQ(protocol.activity_class(a), 0u);  // never initiated
    a.ever_initiated = true;
    a.winner = true;
    EXPECT_EQ(protocol.activity_class(a), 1u);
    EXPECT_FALSE(protocol.may_act(1, 1));
    a.winner = false;
    a.stage = core::lifecycle_stage::tournaments;
    for (std::uint32_t phase = 0; phase < cfg.phase_modulus(); ++phase) {
        a.phase = static_cast<std::uint8_t>(phase);
        for (const auto role : {core::agent_role::collector, core::agent_role::clock,
                                core::agent_role::tracker, core::agent_role::player}) {
            a.role = role;
            EXPECT_LT(protocol.activity_class(a), protocol.activity_classes());
            EXPECT_GE(protocol.activity_class(a), 2u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ActivityClasses,
                         ::testing::Values(algorithm_mode::ordered, algorithm_mode::unordered,
                                           algorithm_mode::improved),
                         ::testing::PrintToStringParamName());

}  // namespace
