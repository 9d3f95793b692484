// Every family's readouts — the convergence and correctness predicates, the
// metric values and the inspection helpers, each written once in the
// family's header as a template over sim::view::population_view — read the
// same configuration the same way on every view of it: an agent
// simulation, its agents as a plain range, and a census simulator built
// from those agents.  The census holds several agents per state, so a
// readout that counts occupied states where it means agents (a counting
// predicate written as a forall) differs here.  Each family is read at
// t = 1, 2, 4, ... parallel time units until its convergence predicate
// holds, so the comparison covers configurations in the middle of a run as
// well as the converged one.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/usd_plurality.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "epidemic/epidemic.h"
#include "leader/leader_election.h"
#include "loadbalance/load_balancer.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "majority/stable_four_state.h"
#include "sim/census_simulator.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"
#include "test_support.h"

namespace {

using namespace plurality;

/// One configuration on the three views a readout may be given.
template <class P>
struct configuration_views {
    const sim::simulation<P>& agent_sim;
    const sim::census_simulator<P>& census;
    double time;

    /// `read` gives the agent simulation's value on the agent range and on
    /// the census too.
    template <class Read>
    void expect_same(const char* readout, Read read) const {
        const auto on_agent_sim = read(agent_sim);
        EXPECT_EQ(read(agent_sim.agents()), on_agent_sim) << readout << " at t = " << time;
        EXPECT_EQ(read(census), on_agent_sim) << readout << " on the census at t = " << time;
    }
};

/// Runs an agent simulation of `protocol` from `census` (laid out as
/// shuffled agents) and hands `check` the views of its configuration at
/// t = 1, 2, 4, ... until `done` holds; fails if `done` does not hold
/// within `max_time`.  Returns the number of configurations checked.
template <class P, class Done, class Check>
int check_until_converged(const P& protocol,
                          const std::vector<sim::census_entry<typename P::agent_t>>& census,
                          Done done, double max_time, Check check) {
    sim::simulation<P> agent_sim{protocol, test::expanded(census, 5), 5};
    const std::uint64_t n = agent_sim.population_size();
    int checked = 0;
    for (std::uint64_t target = n;; target *= 2) {
        agent_sim.run_for(target - agent_sim.interactions());
        const std::vector<typename P::agent_t> agents(agent_sim.agents().begin(),
                                                      agent_sim.agents().end());
        const sim::census_simulator<P> census_sim{protocol, agents, 5};
        EXPECT_LT(census_sim.occupied_states(), n) << "every agent in its own state";
        check(configuration_views<P>{agent_sim, census_sim, agent_sim.parallel_time()});
        ++checked;
        if (done(agent_sim)) break;
        if (agent_sim.parallel_time() > max_time) {
            ADD_FAILURE() << "no convergence by t = " << agent_sim.parallel_time();
            break;
        }
    }
    return checked;
}

class TournamentReadouts : public ::testing::TestWithParam<core::algorithm_mode> {};

TEST_P(TournamentReadouts, ReadTheSameOnEveryView) {
    constexpr std::uint32_t n = 256;
    constexpr std::uint32_t k = 3;
    const auto cfg = core::protocol_config::make(GetParam(), n, k);
    const auto census =
        core::plurality_protocol::initial_census(cfg, workload::make_bias_one(n, k));
    const int checked = check_until_converged(
        core::plurality_protocol{cfg}, census,
        [](const auto& s) { return core::all_winners(s); }, cfg.default_time_budget(),
        [](const auto& v) {
            v.expect_same("role_counts", [](const auto& s) { return core::role_counts(s); });
            for (std::uint32_t opinion = 1; opinion <= k; ++opinion) {
                v.expect_same("tokens_of_opinion", [opinion](const auto& s) {
                    return core::tokens_of_opinion(s, opinion);
                });
            }
            v.expect_same("surviving_opinions",
                          [](const auto& s) { return core::surviving_opinions(s); });
            v.expect_same("init_finished", [](const auto& s) { return core::init_finished(s); });
            v.expect_same("all_winners", [](const auto& s) { return core::all_winners(s); });
            v.expect_same("consensus_opinion",
                          [](const auto& s) { return core::consensus_opinion(s); });
            v.expect_same("leader_count", [](const auto& s) { return core::leader_count(s); });
        });
    EXPECT_GT(checked, 5);
}

INSTANTIATE_TEST_SUITE_P(AllModes, TournamentReadouts,
                         ::testing::Values(core::algorithm_mode::ordered,
                                           core::algorithm_mode::unordered,
                                           core::algorithm_mode::improved),
                         ::testing::PrintToStringParamName());

TEST(FamilyReadouts, UndecidedStateDynamicsReadTheSameOnEveryView) {
    const auto census = baselines::initial_census(workload::make_bias_one(257, 3));
    check_until_converged(
        baselines::usd_plurality_protocol{}, census,
        [](const auto& s) { return baselines::consensus_reached(s); }, 8000.0,
        [](const auto& v) {
            v.expect_same("consensus_opinion",
                          [](const auto& s) { return baselines::consensus_opinion(s); });
            v.expect_same("consensus_reached",
                          [](const auto& s) { return baselines::consensus_reached(s); });
            v.expect_same("undecided_fraction",
                          [](const auto& s) { return baselines::undecided_fraction(s); });
        });
}

TEST(FamilyReadouts, ThreeStateMajorityReadsTheSameOnEveryView) {
    check_until_converged(
        baselines::usd_plurality_protocol{}, baselines::binary_census(155, 145, 0),
        [](const auto& s) { return baselines::consensus_reached(s); }, 600.0,
        [](const auto& v) {
            v.expect_same("consensus_opinion",
                          [](const auto& s) { return baselines::consensus_opinion(s); });
            v.expect_same("consensus_reached",
                          [](const auto& s) { return baselines::consensus_reached(s); });
            v.expect_same("undecided_fraction",
                          [](const auto& s) { return baselines::undecided_fraction(s); });
        });
}

TEST(FamilyReadouts, FourStateMajorityReadsTheSameOnEveryView) {
    check_until_converged(
        majority::stable_four_state_protocol{}, majority::four_state_census(155, 145, 0),
        [](const auto& s) { return majority::consensus_reached(s); }, 1.0e5,
        [](const auto& v) {
            v.expect_same("consensus_sign",
                          [](const auto& s) { return majority::consensus_sign(s); });
            v.expect_same("consensus_reached",
                          [](const auto& s) { return majority::consensus_reached(s); });
            v.expect_same("strong_token_difference",
                          [](const auto& s) { return majority::strong_token_difference(s); });
        });
}

TEST(FamilyReadouts, AveragingMajorityReadsTheSameOnEveryView) {
    check_until_converged(
        loadbalance::load_balance_protocol{},
        majority::averaging_census(155, 145, 0, majority::default_amplification(300)),
        [](const auto& s) {
            return majority::population_verdict(s) != majority::majority_verdict::undecided;
        },
        600.0,
        [](const auto& v) {
            v.expect_same("population_verdict",
                          [](const auto& s) { return majority::population_verdict(s); });
            v.expect_same("population_verdict(thr = 1)",
                          [](const auto& s) { return majority::population_verdict(s, 1); });
        });
}

TEST(FamilyReadouts, CancelDoubleMajorityReadsTheSameOnEveryView) {
    const std::uint8_t cap = majority::default_level_cap(300);
    check_until_converged(
        majority::cancel_double_protocol{cap}, majority::cancel_double_census(155, 145, 0),
        [](const auto& s) { return majority::decided_sign(s) != 0; }, 3000.0,
        [cap](const auto& v) {
            v.expect_same("scaled_token_sum",
                          [cap](const auto& s) { return majority::scaled_token_sum(s, cap); });
            v.expect_same("decided_sign", [](const auto& s) { return majority::decided_sign(s); });
            v.expect_same("signed_fraction",
                          [](const auto& s) { return majority::signed_fraction(s); });
        });
}

TEST(FamilyReadouts, EpidemicReadsTheSameOnEveryView) {
    const std::vector<sim::census_entry<epidemic::epidemic_agent>> census{{{1, 1}, 1},
                                                                          {{0, 0}, 511}};
    check_until_converged(
        epidemic::epidemic_protocol{}, census,
        [](const auto& s) { return epidemic::all_informed(s); }, 640.0,
        [](const auto& v) {
            v.expect_same("informed_count",
                          [](const auto& s) { return epidemic::informed_count(s); });
            v.expect_same("informed_fraction",
                          [](const auto& s) { return epidemic::informed_fraction(s); });
            v.expect_same("all_informed", [](const auto& s) { return epidemic::all_informed(s); });
            v.expect_same("all_carry_payload",
                          [](const auto& s) { return epidemic::all_carry_payload(s, 1); });
        });
}

TEST(FamilyReadouts, LeaderElectionReadsTheSameOnEveryView) {
    constexpr std::uint32_t n = 256;
    const std::uint16_t rounds = leader::default_rounds(n);
    check_until_converged(
        leader::leader_election_protocol{leader::default_psi(n), rounds},
        {{leader::leader_agent{}, n}},
        [rounds](const auto& s) { return leader::election_finished(s, rounds); }, 12800.0,
        [rounds](const auto& v) {
            v.expect_same("candidate_count",
                          [](const auto& s) { return leader::candidate_count(s); });
            v.expect_same("leader_count", [](const auto& s) { return leader::leader_count(s); });
            v.expect_same("election_finished", [rounds](const auto& s) {
                return leader::election_finished(s, rounds);
            });
        });
}

TEST(FamilyReadouts, LoadBalancingReadsTheSameOnEveryView) {
    const std::vector<sim::census_entry<loadbalance::load_agent>> census{{{512}, 1}, {{0}, 511}};
    check_until_converged(
        loadbalance::load_balance_protocol{}, census,
        [](const auto& s) { return loadbalance::discrepancy(s) <= 2; }, 400.0,
        [](const auto& v) {
            v.expect_same("total_load", [](const auto& s) { return loadbalance::total_load(s); });
            v.expect_same("discrepancy",
                          [](const auto& s) { return loadbalance::discrepancy(s); });
        });
}

}  // namespace
