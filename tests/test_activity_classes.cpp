// Soundness of the tournament protocols' activity-class declaration
// (core::plurality_protocol::activity_class / may_act, the optional hook of
// sim/census_store.h).  The census backend skips every interaction
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
// should copy both.  Both runs also check that δ leaves no dead field set:
// every state the census reaches, and both agents after every interaction,
// must equal their live slice (core::plurality_protocol::live_slice).
//
// `may_act` answers every pair in one stage and phase from the rule table
// δ's early return reads, so on those pairs the enumeration replays the
// same early return and both checks above are circular: a kind pair the
// table drops escapes them.  They still check independently what `may_act`
// states beside the table (pairs across stages and phases).  A third suite
// pins whole agent-backend trajectories instead: each mode's runs must
// converge at the interaction count, to the winner, after the number of
// generator words and in the final configuration recorded with δ running
// its full transition on every pair.  The configuration matters: in
// ordered mode a dropped line-up pair leaves the first three unchanged.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "sim/census_simulator.h"
#include "sim/census_store.h"
#include "sim/convergence.h"
#include "sim/delta_outcomes.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"
#include "test_support.h"

namespace {

using namespace plurality;
using core::algorithm_mode;
using core::core_agent;

constexpr std::uint32_t population = 128;
constexpr std::uint32_t opinions = 3;
constexpr std::uint64_t seeds[] = {1, 2, 3};

bool declared_inactive(const core::plurality_protocol& protocol, const core_agent& u,
                       const core_agent& v) {
    return !protocol.may_act(protocol.activity_class(u), protocol.activity_class(v));
}

std::vector<core_agent> initial_agents(const core::protocol_config& cfg, std::uint64_t seed) {
    sim::rng setup(seed);
    return core::plurality_protocol::make_population(
        cfg, workload::make_bias_one(cfg.n, cfg.k), setup);
}

/// Distinct declared-inactive pairs a census check enumerated.
struct checked_pairs {
    std::uint64_t all = 0;
    std::uint64_t electing = 0;  ///< both agents in the electing stage
};

/// Runs one census trial and checks every declared-inactive ordered pair of
/// co-occupied states against δ's exact outcome list, then every state the
/// trial reached against its live slice.
checked_pairs check_census_run(algorithm_mode mode, std::uint64_t seed) {
    using census_sim = sim::census_simulator<core::plurality_protocol>;
    const auto cfg = core::protocol_config::make(mode, population, opinions);
    const core::plurality_protocol protocol{cfg};
    census_sim sim{protocol, initial_agents(cfg, seed), seed};

    std::set<std::string> checked;  // test::state_bytes of both states
    std::uint64_t electing = 0;
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
                if (!checked.insert(test::state_bytes(u) + test::state_bytes(v)).second) continue;
                if (u.stage == core::lifecycle_stage::electing &&
                    v.stage == core::lifecycle_stage::electing)
                    ++electing;
                const bool listed = sim::enumerate_delta_outcomes(protocol, u, v, outcomes);
                const bool identity = listed && outcomes.size() == 1 &&
                                      outcomes[0].probability == 1.0 &&
                                      sim::same_state(outcomes[0].initiator, u) &&
                                      sim::same_state(outcomes[0].responder, v);
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
    std::size_t dead = 0;  // reached states with a field set that δ no longer reads
    for (std::size_t i = 0; i < sim.reachable_states(); ++i)
        dead += !sim::same_state(protocol.live_slice(sim.slot_state(i)), sim.slot_state(i));
    EXPECT_EQ(dead, 0u) << ::testing::PrintToString(mode) << " seed " << seed << ": of "
                        << sim.reachable_states() << " reached states";
    return {checked.size(), electing};
}

/// Runs one agent-based trial, evaluating δ on every interaction, and checks
/// that no declared-inactive pair ever changes an agent and that both agents
/// leave every interaction as their live slice.  Returns the number of
/// declared-inactive interactions seen.
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
        if (!sim::same_state(u, protocol.live_slice(u)) ||
            !sim::same_state(v, protocol.live_slice(v))) {
            ADD_FAILURE() << ::testing::PrintToString(mode) << " seed " << seed
                          << ": interaction " << step << " left a field set that δ no longer reads";
            return inactive;
        }
        if (skip) {
            ++inactive;
            if (!sim::same_state(u, u_before) || !sim::same_state(v, v_before)) {
                ADD_FAILURE() << ::testing::PrintToString(mode) << " seed " << seed
                              << ": declared-inactive classes ("
                              << protocol.activity_class(u_before) << ", "
                              << protocol.activity_class(v_before) << ") changed an agent at "
                              << "interaction " << step;
                return inactive;
            }
        }
        if (step % population == 0 && core::all_winners(agents)) break;
    }
    return inactive;
}

class ActivityClasses : public ::testing::TestWithParam<algorithm_mode> {};

TEST_P(ActivityClasses, InactivePairsOfCensusStatesEnumerateToTheIdentity) {
    checked_pairs checked;
    for (const std::uint64_t seed : seeds) {
        const checked_pairs run = check_census_run(GetParam(), seed);
        checked.all += run.all;
        checked.electing += run.electing;
    }
    // Most class pairs past init are inactive: the check must have had
    // plenty to look at, the election's classes included (ordered mode
    // elects no leader).
    EXPECT_GT(checked.all, 1000u);
    if (GetParam() != algorithm_mode::ordered) {
        EXPECT_GT(checked.electing, 0u);
    }
}

TEST_P(ActivityClasses, AgentLoopNeverSeesAnInactivePairChangeAnAgent) {
    std::uint64_t inactive = 0;
    for (const std::uint64_t seed : seeds) inactive += check_agent_run(GetParam(), seed);
    EXPECT_GT(inactive, 100'000u);
}

TEST_P(ActivityClasses, EveryStateHasAClassInRange) {
    using core::agent_role;
    using core::lifecycle_stage;
    const auto cfg = core::protocol_config::make(GetParam(), population, opinions);
    const core::plurality_protocol protocol{cfg};
    // Two classes before the election, five kinds per (stage, phase) of the
    // tournaments stage and, outside ordered mode, of the electing stage.
    const bool ordered = GetParam() == algorithm_mode::ordered;
    const std::uint32_t classes = protocol.activity_classes();
    EXPECT_EQ(classes, 2 + (ordered ? 1 : 2) * 5 * cfg.phase_modulus());
    EXPECT_EQ(classes, ordered ? 52u : 122u);
    core_agent a;
    EXPECT_EQ(protocol.activity_class(a), 0u);  // never initiated
    a.ever_initiated = true;
    EXPECT_EQ(protocol.activity_class(a), 0u);  // init stage
    a.winner = true;
    EXPECT_EQ(protocol.activity_class(a), 1u);
    EXPECT_FALSE(protocol.may_act(1, 1));
    a.winner = false;

    // Every (stage, phase, kind) has a class of its own in [2, C); a
    // tracker is crowned by tcnt = k + 1 in ordered mode and by `finished`
    // in the others, so the crowned one sets both.
    const auto of_kind = [&](core_agent agent, agent_role role, bool crowned) {
        agent.role = role;
        agent.tcnt = crowned ? cfg.k + 1 : 1;
        agent.finished = crowned;
        return agent;
    };
    std::set<std::uint32_t> seen;
    for (const auto stage : {lifecycle_stage::electing, lifecycle_stage::tournaments}) {
        if (ordered && stage == lifecycle_stage::electing) continue;
        a.stage = stage;
        for (std::uint32_t phase = 0; phase < cfg.phase_modulus(); ++phase) {
            a.phase = static_cast<std::uint8_t>(phase);
            for (const auto role : {agent_role::collector, agent_role::clock, agent_role::tracker,
                                    agent_role::player}) {
                for (const bool crowned : {false, true}) {
                    if (crowned && role != agent_role::tracker) continue;
                    const std::uint32_t c = protocol.activity_class(of_kind(a, role, crowned));
                    EXPECT_GE(c, 2u);
                    EXPECT_LT(c, classes);
                    EXPECT_TRUE(seen.insert(c).second) << "class " << c << " taken twice";
                }
            }
        }
    }

    // Every class in [2, C) belongs to one (stage, phase, kind).
    EXPECT_EQ(seen.size(), classes - 2);
    if (ordered) return;

    // The electing row: in one phase only the tick and electing_interact
    // act; an electing agent and a tournaments agent may always act.
    a.stage = lifecycle_stage::electing;
    a.phase = 3;
    const auto cls = [&](agent_role role) {
        return protocol.activity_class(of_kind(a, role, false));
    };
    EXPECT_FALSE(protocol.may_act(cls(agent_role::collector), cls(agent_role::player)));
    EXPECT_FALSE(protocol.may_act(cls(agent_role::player), cls(agent_role::player)));
    EXPECT_TRUE(protocol.may_act(cls(agent_role::tracker), cls(agent_role::tracker)));
    EXPECT_TRUE(protocol.may_act(cls(agent_role::clock), cls(agent_role::clock)));
    core_agent later = of_kind(a, agent_role::player, false);
    later.stage = lifecycle_stage::tournaments;
    EXPECT_TRUE(protocol.may_act(cls(agent_role::player), protocol.activity_class(later)));
    EXPECT_TRUE(protocol.may_act(protocol.activity_class(later), cls(agent_role::player)));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ActivityClasses,
                         ::testing::Values(algorithm_mode::ordered, algorithm_mode::unordered,
                                           algorithm_mode::improved),
                         ::testing::PrintToStringParamName());

/// Where one agent-backend run of n = 256, k = 3, bias 1 converges.
struct pinned_run {
    std::uint64_t seed;
    std::uint64_t interactions;
    std::uint32_t winner;
    std::uint64_t rng_words;
    std::uint64_t configuration;  ///< configuration_digest at convergence
};

/// An order-independent digest of a configuration: the sum of its agents'
/// state hashes.  Each agent's bytes are its live slice, so a change to
/// what live_slice keeps moves the digests and nothing else.
std::uint64_t configuration_digest(std::span<const core_agent> agents) {
    std::uint64_t digest = 0;
    for (const core_agent& a : agents) digest += sim::state_hash(a);
    return digest;
}

std::vector<pinned_run> pinned_runs(algorithm_mode mode) {
    switch (mode) {
        case algorithm_mode::ordered:
            return {{1, 710'656, 1, 725'702, 0x4c4d62f026ef58b2},
                    {2, 647'936, 1, 664'895, 0xa24bcf80df69d3fb},
                    {3, 672'512, 1, 688'463, 0x74bfc0e36ad79223}};
        case algorithm_mode::unordered:
            return {{1, 2'556'160, 1, 2'611'297, 0xac5dfdd61dd82a40},
                    {2, 2'321'152, 1, 2'382'050, 0xd4f37c67352b5a07},
                    {3, 2'436'096, 1, 2'494'389, 0xf1e30bf35a39c15f}};
        case algorithm_mode::improved:
            return {{1, 2'682'624, 1, 2'735'754, 0xe0f21181443af11c},
                    {2, 2'868'992, 1, 2'918'399, 0xa9e481179c7ae85d},
                    {3, 2'345'216, 1, 2'405'173, 0xa1741796de31216b}};
    }
    return {};
}

class DeltaTrajectories : public ::testing::TestWithParam<algorithm_mode> {};

TEST_P(DeltaTrajectories, AgentRunsConvergeWhereRecorded) {
    constexpr std::uint32_t pinned_population = 256;
    const auto cfg = core::protocol_config::make(GetParam(), pinned_population, opinions);
    for (const pinned_run& pinned : pinned_runs(GetParam())) {
        using agent_sim = sim::simulation<core::plurality_protocol>;
        agent_sim sim{core::plurality_protocol{cfg}, initial_agents(cfg, pinned.seed), pinned.seed};
        const auto outcome = sim::converge(
            sim, [](const agent_sim& s) { return core::all_winners(s); },
            sim::interaction_budget(cfg.default_time_budget(), pinned_population),
            pinned_population);
        SCOPED_TRACE(::testing::Message() << "seed " << pinned.seed);
        ASSERT_TRUE(outcome.converged);
        EXPECT_EQ(outcome.interactions, pinned.interactions);
        EXPECT_EQ(sim.agents().front().opinion, pinned.winner);
        EXPECT_EQ(configuration_digest(sim.agents()), pinned.configuration);
        obs::snapshot metrics;
        sim.collect_metrics(metrics);
        const obs::sample* words = metrics.find(obs::m_rng_words);
        ASSERT_NE(words, nullptr);
        EXPECT_EQ(words->value, pinned.rng_words);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, DeltaTrajectories,
                         ::testing::Values(algorithm_mode::ordered, algorithm_mode::unordered,
                                           algorithm_mode::improved),
                         ::testing::PrintToStringParamName());

}  // namespace
