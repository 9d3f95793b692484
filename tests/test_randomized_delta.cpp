// Tests for the randomized-δ group path (sim/delta_outcomes.h +
// sim/group_delta.h): exactness of the choice-tree enumerator on a toy
// protocol with a closed-form outcome distribution, refusal on
// non-enumerable entropy, the choice-free replay that lets leap skip the
// outcome table, the multinomial group application of the outcome
// table, bitwise outcome-support agreement between the enumerated lists and
// the per-pair δ ground truth for both tournament protocols (leader
// election and exact plurality), grouped-vs-fallback distributional
// agreement at the backend level, and 5σ cross-backend agreement of
// convergence times (agent vs census vs leap) for the paper's protocols.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/usd_plurality.h"
#include "core/plurality_protocol.h"
#include "core/result.h"
#include "epidemic/epidemic.h"
#include "leader/leader_election.h"
#include "loadbalance/load_balancer.h"
#include "majority/cancel_double.h"
#include "majority/stable_four_state.h"
#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "scenario/registry.h"
#include "sim/census_simulator.h"
#include "sim/delta_outcomes.h"
#include "sim/group_delta.h"
#include "sim/rng.h"
#include "workload/opinion_distribution.h"
#include "test_support.h"

namespace {

using namespace plurality;

// -- toy protocol with a closed-form outcome distribution ---------------------

struct toy_agent {
    std::uint32_t x = 0;
};

/// Equal pair: fair coin picks which side increments.  Unequal pair: a
/// three-way uniform (adopt v / adopt u / keep), then a 1/4 Bernoulli bonus
/// iff the pair just became equal.  Every branch probability is known in
/// closed form, so the enumerator's output can be checked exactly.
struct toy_protocol {
    using agent_t = toy_agent;

    template <class R>
    void interact(agent_t& u, agent_t& v, R& gen) const {
        if (u.x == v.x) {
            if (gen.next_bool()) {
                u.x += 1;
            } else {
                v.x += 1;
            }
            return;
        }
        switch (gen.next_below(3)) {
            case 0: u.x = v.x; break;
            case 1: v.x = u.x; break;
            default: break;
        }
        if (u.x == v.x && gen.next_bernoulli(0.25)) u.x += 10;
    }
};

using toy_key_pair = std::pair<std::uint64_t, std::uint64_t>;

std::map<toy_key_pair, double> merged_outcomes(const toy_protocol& proto, toy_agent u,
                                               toy_agent v) {
    std::vector<sim::delta_outcome<toy_agent>> out;
    EXPECT_TRUE(sim::enumerate_delta_outcomes(proto, u, v, out));
    std::map<toy_key_pair, double> merged;
    for (const auto& o : out) merged[{o.initiator.x, o.responder.x}] += o.probability;
    return merged;
}

TEST(DeltaEnumerator, EqualPairEnumeratesToTwoHalfOutcomes) {
    const auto merged = merged_outcomes({}, {0}, {0});
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_DOUBLE_EQ(merged.at({1, 0}), 0.5);
    EXPECT_DOUBLE_EQ(merged.at({0, 1}), 0.5);
}

TEST(DeltaEnumerator, UnequalPairEnumeratesTheFullClosedFormDistribution) {
    // (0, 1): adopt-v → (1,1) then 1/4 bonus; adopt-u → (0,0) then bonus;
    // keep → (0,1).  Five distinct result pairs, probabilities by hand.
    const auto merged = merged_outcomes({}, {0}, {1});
    ASSERT_EQ(merged.size(), 5u);
    EXPECT_DOUBLE_EQ(merged.at({11, 1}), (1.0 / 3.0) * 0.25);
    EXPECT_DOUBLE_EQ(merged.at({1, 1}), (1.0 / 3.0) * 0.75);
    EXPECT_DOUBLE_EQ(merged.at({10, 0}), (1.0 / 3.0) * 0.25);
    EXPECT_DOUBLE_EQ(merged.at({0, 0}), (1.0 / 3.0) * 0.75);
    EXPECT_DOUBLE_EQ(merged.at({0, 1}), 1.0 / 3.0);
    double total = 0.0;
    for (const auto& [key, p] : merged) total += p;
    EXPECT_NEAR(total, 1.0, 1e-15);
}

// -- refusal on non-enumerable entropy ----------------------------------------

struct unit_draw_protocol {
    using agent_t = toy_agent;
    template <class R>
    void interact(agent_t& u, agent_t&, R& gen) const {
        if (gen.next_unit() < 0.5) u.x += 1;
    }
};

struct wide_uniform_protocol {
    using agent_t = toy_agent;
    template <class R>
    void interact(agent_t& u, agent_t&, R& gen) const {
        u.x = static_cast<std::uint32_t>(gen.next_below(100));
    }
};

struct deep_coin_protocol {
    using agent_t = toy_agent;
    template <class R>
    void interact(agent_t& u, agent_t&, R& gen) const {
        for (int i = 0; i < 20; ++i) {  // exceeds max_script_length
            if (gen.next_bool()) u.x += 1;
        }
    }
};

template <class P>
bool enumerates(const P& proto) {
    std::vector<sim::delta_outcome<toy_agent>> out;
    const bool ok = sim::enumerate_delta_outcomes(proto, toy_agent{0}, toy_agent{1}, out);
    EXPECT_EQ(ok, !out.empty());
    return ok;
}

TEST(DeltaEnumerator, RefusesContinuousWideAndDeepChoiceTrees) {
    EXPECT_FALSE(enumerates(unit_draw_protocol{}));
    EXPECT_FALSE(enumerates(wide_uniform_protocol{}));
    EXPECT_FALSE(enumerates(deep_coin_protocol{}));
}

struct forced_choice_protocol {
    using agent_t = toy_agent;
    template <class R>
    void interact(agent_t& u, agent_t&, R& gen) const {
        // Degenerate requests must be forced without becoming choice points.
        if (gen.next_bernoulli(0.0)) u.x += 100;
        if (gen.next_bernoulli(1.0)) u.x += 1;
        u.x += static_cast<std::uint32_t>(gen.next_below(1));
    }
};

TEST(DeltaEnumerator, ForcedChoicesYieldOneCertainOutcome) {
    std::vector<sim::delta_outcome<toy_agent>> out;
    ASSERT_TRUE(sim::enumerate_delta_outcomes(forced_choice_protocol{}, toy_agent{0},
                                              toy_agent{5}, out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].initiator.x, 1u);
    EXPECT_EQ(out[0].responder.x, 5u);
    EXPECT_DOUBLE_EQ(out[0].probability, 1.0);
}

// -- trait adoption -----------------------------------------------------------

// Templating `interact` is the only δ hook, and every builtin protocol has
// it: the leap backend replays each pair to find the choice-free ones, and
// enumerates the rest.
static_assert(sim::delta_enumerable<core::plurality_protocol>);
static_assert(sim::delta_enumerable<leader::leader_election_protocol>);
static_assert(sim::delta_enumerable<baselines::usd_plurality_protocol>);
static_assert(sim::delta_enumerable<epidemic::epidemic_protocol>);
static_assert(sim::delta_enumerable<loadbalance::load_balance_protocol>);
static_assert(sim::delta_enumerable<majority::stable_four_state_protocol>);
static_assert(sim::delta_enumerable<majority::cancel_double_protocol>);

TEST(DeltaEnumerator, ChoiceFreeReplayFindsExactlyThePairsWithoutAChoice) {
    // Every toy pair asks for a choice, and a unit draw is no enumerable
    // choice either; forced requests are no choice at all.
    for (const auto& [x, y] : {std::pair{0u, 0u}, std::pair{0u, 1u}}) {
        toy_agent u{x};
        toy_agent v{y};
        EXPECT_FALSE(sim::choice_free_delta(toy_protocol{}, u, v)) << x << ", " << y;
    }
    toy_agent uu{0};
    toy_agent uv{1};
    EXPECT_FALSE(sim::choice_free_delta(unit_draw_protocol{}, uu, uv));
    toy_agent fu{0};
    toy_agent fv{5};
    ASSERT_TRUE(sim::choice_free_delta(forced_choice_protocol{}, fu, fv));
    EXPECT_EQ(fu.x, 1u);
    EXPECT_EQ(fv.x, 5u);
    // A deterministic protocol: every pair is choice-free, and the replay
    // leaves δ's outcome in place.
    baselines::usd_agent a{test::alpha_v};
    baselines::usd_agent b{test::beta_v};
    ASSERT_TRUE(sim::choice_free_delta(baselines::usd_plurality_protocol{}, a, b));
    EXPECT_EQ(a.opinion, test::alpha_v);
    EXPECT_EQ(b.opinion, test::undecided_v);
}

// -- outcome table: memoized lookup + multinomial group application -----------

TEST(DeltaOutcomeTable, AppliesGroupsByMultinomialSplitWithinFiveSigma) {
    sim::detail::delta_outcome_table<toy_protocol> table;
    const toy_protocol proto;
    const auto& entry = table.lookup(proto, toy_agent{0}, toy_agent{1});
    ASSERT_TRUE(entry.groupable);
    ASSERT_EQ(entry.outcomes.size(), 5u);

    // apply_group deposits add(initiator, c); add(responder, c) per outcome
    // in entry order (zero-count outcomes skipped), so the per-outcome
    // multinomial counts can be reconstructed exactly from the call pairs.
    constexpr std::uint64_t group = 200000;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;  // (state, count)
    sim::rng gen(321);
    table.apply_group(entry, gen, group, [&](const toy_agent& state, std::uint64_t c) {
        calls.emplace_back(state.x, c);
    });
    ASSERT_EQ(calls.size() % 2, 0u);

    std::map<toy_key_pair, std::uint64_t> split;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < calls.size(); i += 2) {
        ASSERT_EQ(calls[i].second, calls[i + 1].second);
        split[{calls[i].first, calls[i + 1].first}] += calls[i].second;
        total += calls[i].second;
    }
    EXPECT_EQ(total, group);

    for (std::size_t i = 0; i < entry.outcomes.size(); ++i) {
        const double p = entry.weights[i];
        const double want = static_cast<double>(group) * p;
        const double sigma = std::sqrt(static_cast<double>(group) * p * (1.0 - p));
        const toy_key_pair key{entry.outcomes[i].initiator.x, entry.outcomes[i].responder.x};
        const auto it = split.find(key);
        const double got = it == split.end() ? 0.0 : static_cast<double>(it->second);
        EXPECT_NEAR(got, want, 5.0 * sigma + 1.0) << "outcome " << i;
    }
    EXPECT_EQ(split.size(), entry.outcomes.size());  // all five outcomes drawn
}

TEST(DeltaOutcomeTable, SingleOutcomeGroupsConsumeNoRandomness) {
    sim::detail::delta_outcome_table<forced_choice_protocol> table;
    const auto& entry = table.lookup({}, toy_agent{0}, toy_agent{5});
    ASSERT_TRUE(entry.groupable);
    ASSERT_EQ(entry.outcomes.size(), 1u);
    sim::rng gen(9);
    const std::uint64_t before = gen.next();
    sim::rng replay(9);
    std::uint64_t deposited = 0;
    table.apply_group(entry, replay, 1000, [&](const toy_agent&, std::uint64_t c) {
        deposited += c;
    });
    EXPECT_EQ(deposited, 2000u);
    EXPECT_EQ(replay.next(), before);  // stream untouched
}

// -- bitwise outcome support vs per-pair δ ground truth -----------------------
//
// The satellite's "grouped-δ ≡ per-pair-fallback" check, stated bitwise on
// states: every result the per-pair δ can produce must be byte-equal to an
// enumerated outcome (and frequencies must match within 5σ), so a group's
// multinomial split ranges over exactly the states the fallback would have
// deposited.

struct pair_check_tally {
    std::size_t checked = 0;
    std::size_t skipped = 0;        ///< pairs where enumeration refused
    std::size_t multi_outcome = 0;  ///< pairs with genuine randomness
};

template <class P>
void check_pair_support(const P& proto, const typename P::agent_t& u,
                        const typename P::agent_t& v, std::uint64_t seed, std::size_t reps,
                        pair_check_tally& tally) {
    using key_pair = std::string;  // test::state_bytes of both states
    std::vector<sim::delta_outcome<typename P::agent_t>> outcomes;
    if (!sim::enumerate_delta_outcomes(proto, u, v, outcomes)) {
        ++tally.skipped;
        return;
    }
    ++tally.checked;
    std::map<key_pair, double> prob;
    double total = 0.0;
    for (const auto& o : outcomes) {
        prob[test::state_bytes(o.initiator) + test::state_bytes(o.responder)] += o.probability;
        total += o.probability;
    }
    ASSERT_NEAR(total, 1.0, 1e-12);
    if (prob.size() > 1) ++tally.multi_outcome;

    std::map<key_pair, std::uint64_t> observed;
    sim::rng gen(seed);
    for (std::size_t i = 0; i < reps; ++i) {
        auto ru = u;
        auto rv = v;
        proto.interact(ru, rv, gen);
        ++observed[test::state_bytes(ru) + test::state_bytes(rv)];
    }
    for (const auto& [key, count] : observed) {
        ASSERT_TRUE(prob.contains(key))
            << "per-pair δ reached a state pair missing from the enumerated outcomes "
            << "(observed " << count << "/" << reps << " times)";
    }
    for (const auto& [key, p] : prob) {
        const double want = static_cast<double>(reps) * p;
        const double sigma = std::sqrt(static_cast<double>(reps) * p * (1.0 - p));
        const auto it = observed.find(key);
        const double got = it == observed.end() ? 0.0 : static_cast<double>(it->second);
        EXPECT_NEAR(got, want, 5.0 * sigma + 1.0);
    }
}

TEST(RandomizedDeltaLeader, EnumeratedOutcomesAreBitwiseSupportOfPerPairDelta) {
    const leader::leader_election_protocol proto{8, 3};
    using agent = leader::leader_agent;
    const auto with = [](auto mutate) {
        agent a;
        mutate(a);
        return a;
    };
    const std::vector<std::pair<agent, agent>> pairs = {
        {agent{}, agent{}},  // fresh tie: coin fires
        {with([](agent& a) { a.count = 7; }), with([](agent& a) { a.count = 7; })},  // wrap
        {with([](agent& a) { a.count = 3; }), with([](agent& a) { a.count = 5; })},
        {with([](agent& a) { a.count = 5; }), with([](agent& a) { a.count = 3; })},
        {with([](agent& a) {
             a.count = 7;
             a.coin = true;
             a.saw_one = true;
         }),
         with([](agent& a) {
             a.count = 7;
             a.candidate = false;
         })},
        {with([](agent& a) {
             a.candidate = false;
             a.rounds_done = 3;
         }),
         with([](agent& a) {
             a.rounds_done = 3;
             a.leader = true;
         })},
    };
    pair_check_tally tally;
    std::uint64_t seed = 5150;
    for (const auto& [u, v] : pairs) {
        check_pair_support(proto, u, v, seed++, 4000, tally);
    }
    // Every leader pair enumerates (the protocol's choices are a tie-break
    // coin and a round coin, both state-determined), and the tie/wrap pairs
    // exercise genuine randomness.
    EXPECT_EQ(tally.skipped, 0u);
    EXPECT_EQ(tally.checked, pairs.size());
    EXPECT_GE(tally.multi_outcome, 2u);
}

TEST(RandomizedDeltaPlurality, EnumeratedOutcomesAreBitwiseSupportOfPerPairDelta) {
    // Harvest reachable states from a short census run of the ordered
    // tournament protocol, then check every ordered pair of the harvested
    // states against the per-pair δ ground truth.
    const auto dist = workload::make_bias_one(512, 2, 32);
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, 512, 2);
    const core::plurality_protocol proto{cfg};

    std::set<std::string> seen;
    std::vector<core::core_agent> states;
    sim::census_simulator<core::plurality_protocol> harvest{
        proto, core::plurality_protocol::initial_census(cfg, dist), 11};
    for (int checkpoint = 0; checkpoint < 8 && states.size() < 16; ++checkpoint) {
        harvest.run_for(512 * 6);
        harvest.visit_states([&](const core::core_agent& s, std::uint64_t) {
            if (states.size() < 16 && seen.insert(test::state_bytes(s)).second) {
                states.push_back(s);
            }
            return true;
        });
    }
    ASSERT_GE(states.size(), 4u);

    pair_check_tally tally;
    std::uint64_t seed = 62000;
    for (const auto& u : states) {
        for (const auto& v : states) {
            check_pair_support(proto, u, v, seed++, 2500, tally);
        }
    }
    // The vast majority of reachable pairs must enumerate (rare deep
    // phase-catch-up chains may refuse and keep the per-pair fallback), and
    // real randomness must have been exercised somewhere.
    EXPECT_GE(tally.checked, (tally.checked + tally.skipped) * 9 / 10);
    EXPECT_GE(tally.multi_outcome, 1u);
}

// -- grouped vs per-pair fallback at the backend level ------------------------

/// Leader election with the group path hidden — its `interact` takes only a
/// `sim::rng&`, so it is not delta_enumerable: the table path must take the
/// per-pair fallback for every group.
struct per_pair_leader {
    using agent_t = leader::leader_agent;
    leader::leader_election_protocol inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const noexcept {
        inner.interact(u, v, gen);
    }
};
static_assert(!sim::delta_enumerable<per_pair_leader>);

TEST(RandomizedDeltaBackend, GroupedLeaderMatchesPerPairFallbackDistributionally) {
    // The grouped path consumes the stream differently from the fallback
    // (one multinomial per group vs one draw per pair), so trajectories
    // differ per seed — but the chain distribution must not.  Compare mean
    // surviving-candidate counts after a fixed horizon under a 5σ band.
    // At this n leader election occupies at most ~20 states against
    // collision-free runs of ~63 interactions, so the cost model keeps
    // every run on the contingency table (checked below): the comparison is
    // grouped table cells against per-pair table cells, not stepping
    // against stepping.
    constexpr std::uint32_t n = 10'000;
    const std::uint32_t psi = leader::default_psi(n);
    const std::uint16_t rounds = leader::default_rounds(n);
    constexpr std::uint64_t horizon = static_cast<std::uint64_t>(n) * 40;
    constexpr std::size_t trials = 40;

    const auto candidates_after = [&](std::uint64_t seed, bool grouped) {
        const std::vector<sim::census_entry<leader::leader_agent>> init{
            {leader::leader_agent{}, n}};
        double candidates = 0.0;
        const auto tally = [&](const auto& sim_obj) {
            sim_obj.visit_states([&](const leader::leader_agent& s, std::uint64_t count) {
                if (s.candidate) candidates += static_cast<double>(count);
                return true;
            });
        };
        if (grouped) {
            sim::census_simulator<leader::leader_election_protocol> s{
                leader::leader_election_protocol{psi, rounds}, init, seed};
            s.run_for(horizon);
            tally(s);
            obs::snapshot observed;
            s.collect_metrics(observed);
            EXPECT_GT(test::counter_of(observed, obs::m_runs), 0u) << "seed " << seed;
            EXPECT_EQ(test::counter_of(observed, obs::m_fenwick_descents), 0u) << "seed " << seed;
        } else {
            sim::census_simulator<per_pair_leader> s{
                per_pair_leader{leader::leader_election_protocol{psi, rounds}}, init, seed};
            s.run_for(horizon);
            tally(s);
        }
        return candidates;
    };

    std::vector<double> grouped, per_pair;
    for (std::size_t i = 0; i < trials; ++i) {
        grouped.push_back(candidates_after(71000 + i, true));
        per_pair.push_back(candidates_after(76000 + i, false));
    }
    test::expect_same_mean(grouped, per_pair);
}

// -- cross-backend 5σ agreement for the paper's protocols ---------------------

// Agent backend, `run_for` (the census backend) and `advance` (stepping
// alone); the stepped side restates each scenario's census and budget and
// calls the family's convergence predicate.

TEST(RandomizedDeltaCrossBackend, LeaderElectionTimesAgreeAcrossAgentCensusLeap) {
    const auto* s = scenario::scenario_registry::instance().find("leader/election");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 256;
    const std::uint16_t rounds = leader::default_rounds(params.n);
    const auto elected = [rounds](const auto& sim) {
        return leader::election_finished(sim, rounds);
    };
    const double log_n = std::log2(static_cast<double>(params.n));
    const auto stepped = test::stepped_mean_time(
        leader::leader_election_protocol{leader::default_psi(params.n), rounds},
        {{leader::leader_agent{}, params.n}}, elected, 200.0 * log_n * log_n, 30, 6006);
    test::expect_backends_agree(*s, params, 30, 6006, stepped);
}

TEST(RandomizedDeltaCrossBackend, OrderedPluralityTimesAgreeAcrossAgentCensusLeap) {
    const auto* s = scenario::scenario_registry::instance().find("plurality/ordered");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    params.k = 2;
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, 512, 2);
    const auto won = [](const auto& sim) { return core::all_winners(sim); };
    const auto stepped = test::stepped_mean_time(
        core::plurality_protocol{cfg},
        core::plurality_protocol::initial_census(cfg, workload::make_bias_one(512, 2)), won,
        cfg.default_time_budget(), 16, 7007);
    test::expect_backends_agree(*s, params, 16, 7007, stepped);
    // `run_for` switches strategy within a trial — contingency-table runs
    // while few states are occupied, stepping once the tournament spreads
    // over many — so the agreement above covers the switching.  Replays
    // the first census trial compared above.
    const auto census =
        s->run(params, sim::derive_seed(7007, 0), scenario::backend_kind::census);
    EXPECT_GT(test::counter_of(census.observed, obs::m_runs), 0u);
    EXPECT_GT(test::counter_of(census.observed, obs::m_fenwick_descents), 0u);
}

}  // namespace
