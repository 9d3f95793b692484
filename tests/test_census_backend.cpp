// Tests for the census-space simulation backend (sim/census_simulator.h)
// and its scenario-layer integration: bookkeeping invariants and per-seed
// determinism of the stepping loop (`advance`; tests/test_leap_backend.cpp
// covers `run_for` and its table runs), registry-wide convergence on the
// census backend, and the distributional agreement its correctness argument
// rests on (the agent backend, `run_for` and `advance` simulate the same
// Markov chain).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/usd_plurality.h"
#include "census/state_census.h"
#include "core/agent.h"
#include "core/plurality_protocol.h"
#include "epidemic/epidemic.h"
#include "leader/leader_election.h"
#include "loadbalance/load_balancer.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "majority/stable_four_state.h"
#include "obs/catalogue.h"
#include "obs/snapshot.h"
#include "scenario/json_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/census_simulator.h"
#include "sim/census_store.h"
#include "sim/rng.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"
#include "test_support.h"

namespace {

using namespace plurality;
using baselines::binary_census;
using test::alpha_v;
using test::beta_v;
using test::three_sim;
using test::undecided_v;

TEST(CensusSimulator, ConservesPopulationAcrossInteractions) {
    three_sim sim{{}, binary_census(60, 40, 0), 7};
    ASSERT_EQ(sim.population_size(), 100u);

    for (int batch = 0; batch < 20; ++batch) {
        sim.advance(50);
        std::uint64_t total = 0;
        sim.visit_states([&total](const baselines::usd_agent&, std::uint64_t count) {
            total += count;
            return true;
        });
        EXPECT_EQ(total, 100u);
    }
    EXPECT_EQ(sim.interactions(), 1000u);
    EXPECT_DOUBLE_EQ(sim.parallel_time(), 10.0);
    // Three-state dynamics can only ever occupy the three declared states.
    EXPECT_LE(sim.occupied_states(), 3u);
    EXPECT_LE(sim.reachable_states(), 3u);
}

/// Floor/ceil averaging with activity classes by load sign (negative, zero,
/// positive).  Two zero loads average to zero loads, so the zero class may
/// not act with itself; every other class pair may.  The classes give the
/// locate tests several trees whose slots keep emptying and refilling.
struct sign_classed_averaging {
    using agent_t = loadbalance::load_agent;
    loadbalance::load_balance_protocol inner;
    void interact(agent_t& u, agent_t& v, sim::rng& gen) const { inner.interact(u, v, gen); }
    [[nodiscard]] std::uint32_t activity_classes() const noexcept { return 3; }
    [[nodiscard]] std::uint32_t activity_class(const agent_t& a) const noexcept {
        return a.load < 0 ? 0 : a.load == 0 ? 1 : 2;
    }
    [[nodiscard]] bool may_act(std::uint32_t c, std::uint32_t d) const noexcept {
        return c != 1 || d != 1;
    }
};
using sign_classed_sim = sim::census_simulator<sign_classed_averaging>;

sign_classed_sim make_sign_classed_sim(std::uint64_t seed) {
    return sign_classed_sim{
        {}, majority::averaging_census(155, 120, 25, majority::default_amplification(300)), seed};
}

TEST(CensusSimulator, BranchlessLocateMatchesReferenceDescentOnEveryRank) {
    // In every class tree, the branchless (masked) Fenwick descent and the
    // guarded-loop reference must pick the same slot for every rank —
    // exhaustively, so a boundary slip at a node edge cannot hide.
    auto sim = make_sign_classed_sim(11);
    sim.run_for(3000);  // move mass around so slot counts are irregular
    std::uint64_t ranks = 0;
    for (std::uint32_t cls = 0; cls < 3; ++cls) {
        for (std::uint64_t rank = 0; rank < sim.class_count(cls); ++rank) {
            ASSERT_EQ(sim.locate_rank(cls, rank), sim.locate_rank_reference(cls, rank))
                << "class " << cls << " rank " << rank;
        }
        ranks += sim.class_count(cls);
    }
    EXPECT_EQ(ranks, sim.population_size());
}

TEST(CensusSimulator, LocateReturnsEachSlotAsOneBlockAfterPositionsAreRecycled) {
    // Each class tree is indexed by positions that slots take when they
    // become occupied and give back when they empty.  Averaging keeps
    // abandoning load values, so later slots reuse earlier slots' positions.
    // In every class, each occupied slot of that class must still come back
    // for exactly `count` ranks, in one contiguous block, on both descents,
    // and no slot may turn up in two classes.
    const sign_classed_averaging classes{};
    auto sim = make_sign_classed_sim(13);
    sim.run_for(3000);
    ASSERT_GT(sim.reachable_states(), sim.occupied_states());

    struct block {
        std::uint32_t cls = 0;
        std::uint64_t first = 0;
        std::uint64_t hits = 0;
    };
    std::map<std::size_t, block> blocks;  // slot -> its class and ranks
    for (std::uint32_t cls = 0; cls < 3; ++cls) {
        for (std::uint64_t rank = 0; rank < sim.class_count(cls); ++rank) {
            const std::size_t slot = sim.locate_rank(cls, rank);
            ASSERT_EQ(slot, sim.locate_rank_reference(cls, rank)) << "rank=" << rank;
            auto [it, inserted] = blocks.try_emplace(slot, block{cls, rank, 0});
            ASSERT_EQ(it->second.cls, cls) << "slot " << slot << " in two classes";
            ASSERT_EQ(it->second.first + it->second.hits, rank) << "slot " << slot << " split";
            ++it->second.hits;
        }
    }
    // The located slots are the occupied slots, one block each: every
    // slot's state is in the class it was located in and holds as many
    // agents as its block has ranks.
    ASSERT_EQ(blocks.size(), sim.occupied_states());
    for (const auto& [slot, b] : blocks) {
        const loadbalance::load_agent& state = sim.slot_state(slot);
        EXPECT_EQ(classes.activity_class(state), b.cls) << "slot " << slot;
        EXPECT_EQ(sim.count_of(state), b.hits) << "slot " << slot;
    }
}

/// An identity δ over labelled agents, classed by label mod 3, with class 1
/// unable to act with itself.  Counts its δ calls through `calls`.
struct labelled_identity {
    struct agent_t {
        std::uint32_t label = 0;
    };
    std::uint64_t* calls = nullptr;
    void interact(agent_t&, agent_t&, sim::rng&) const {
        if (calls != nullptr) ++*calls;
    }
    [[nodiscard]] std::uint32_t activity_classes() const noexcept { return 3; }
    [[nodiscard]] std::uint32_t activity_class(const agent_t& a) const noexcept {
        return a.label % 3;
    }
    [[nodiscard]] bool may_act(std::uint32_t c, std::uint32_t d) const noexcept {
        return c != 1 || d != 1;
    }
};
using labelled_sim = sim::census_simulator<labelled_identity>;

std::vector<sim::census_entry<labelled_identity::agent_t>> labelled_census(
    const std::vector<std::uint64_t>& counts) {
    std::vector<sim::census_entry<labelled_identity::agent_t>> entries;
    for (std::uint32_t label = 0; label < counts.size(); ++label)
        entries.push_back({{label}, counts[label]});
    return entries;
}

TEST(CensusSimulator, ExecutedPairDrawHitsEveryMayActSlotPairByTheExactPairLaw) {
    // The executed-pair draw picks the initiator's class with weight
    // N_c·R_c, then splits one bounded uniform over N_c·R_c into the
    // initiator's rank and the responder's place along the class's row.
    // Enumerated over every value (executed_pair_at(rank) for every
    // rank < W), each ordered slot pair (i, j) whose class pair may act
    // must come out exactly c_i·(c_j − [i = j]) times — the responder is any
    // agent except the initiator itself, which single-agent slots make
    // visible — and no other pair at all.  Three classes with irregular
    // counts; class 1 may not act with itself.
    const std::vector<std::uint64_t> counts = {1, 4, 1, 7, 2, 1, 3, 5, 2};
    const labelled_identity classes{};
    const labelled_sim sim{{}, labelled_census(counts), 1};  // slot i holds label i

    std::uint64_t expected_weight = 0;
    std::vector<std::vector<std::uint64_t>> want(counts.size(),
                                                 std::vector<std::uint64_t>(counts.size(), 0));
    for (std::uint32_t i = 0; i < counts.size(); ++i) {
        for (std::uint32_t j = 0; j < counts.size(); ++j) {
            if (!classes.may_act(i % 3, j % 3)) continue;
            want[i][j] = counts[i] * (counts[j] - (i == j ? 1 : 0));
            expected_weight += want[i][j];
        }
    }
    ASSERT_EQ(sim.may_act_weight(), expected_weight);
    ASSERT_LT(sim.may_act_weight(), sim.population_size() * (sim.population_size() - 1));

    std::vector<std::vector<std::uint64_t>> hits(counts.size(),
                                                 std::vector<std::uint64_t>(counts.size(), 0));
    for (std::uint64_t rank = 0; rank < sim.may_act_weight(); ++rank) {
        const auto [initiator, responder] = sim.executed_pair_at(rank);
        ASSERT_LT(initiator, counts.size());
        ASSERT_LT(responder, counts.size());
        ++hits[initiator][responder];
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        for (std::size_t j = 0; j < counts.size(); ++j) {
            EXPECT_EQ(hits[i][j], want[i][j]) << "pair (" << i << ", " << j << ")";
        }
    }
}

TEST(CensusSimulator, SkippedInteractionsFollowTheBinomialLaw) {
    // δ is the identity, so W stays fixed and every window of m stepped
    // interactions executes Binomial(m, W / n(n−1)) of them (the geometric
    // skips are memoryless across advance calls).  Mean and variance over the windows
    // must match at 5σ, and every window must advance interactions() by
    // exactly m.
    std::uint64_t calls = 0;
    labelled_sim sim{labelled_identity{&calls}, labelled_census({3, 9, 2, 1, 6, 4}), 2024};
    const auto n = static_cast<double>(sim.population_size());
    const double p = static_cast<double>(sim.may_act_weight()) / (n * (n - 1));
    ASSERT_GT(p, 0.2);
    ASSERT_LT(p, 0.8);

    constexpr std::uint64_t m = 500;
    constexpr int windows = 4000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int w = 0; w < windows; ++w) {
        const std::uint64_t before = sim.interactions();
        const std::uint64_t calls_before = calls;
        sim.advance(m);
        ASSERT_EQ(sim.interactions() - before, m);
        const auto executed = static_cast<double>(calls - calls_before);
        sum += executed;
        sum_sq += executed * executed;
    }
    const double q = 1.0 - p;
    const double mean = static_cast<double>(m) * p;
    const double variance = static_cast<double>(m) * p * q;
    const double sample_mean = sum / windows;
    const double sample_variance = (sum_sq - windows * sample_mean * sample_mean) / (windows - 1);
    EXPECT_NEAR(sample_mean, mean, 5.0 * std::sqrt(variance / windows));
    // Var(s²) ≈ (μ₄ − σ⁴·(w − 3)/(w − 1)) / w, with the binomial's fourth
    // central moment μ₄ = mpq·(1 + 3(m − 2)pq).
    const double mu4 = variance * (1.0 + 3.0 * (static_cast<double>(m) - 2.0) * p * q);
    const double var_of_variance =
        (mu4 - variance * variance * (windows - 3.0) / (windows - 1.0)) / windows;
    EXPECT_NEAR(sample_variance, variance, 5.0 * std::sqrt(var_of_variance));
}

TEST(CensusSimulator, NothingMayActFinishesAnyBudgetAtOnce) {
    // Every agent in class 1, which may not act with itself: W = 0, so no
    // interaction can ever change anything and run_for(10¹²) must return at
    // once, without a single δ call, yet count every interaction.
    std::uint64_t calls = 0;
    labelled_sim sim{labelled_identity{&calls}, labelled_census({0, 5, 0, 0, 7}), 3};
    ASSERT_EQ(sim.may_act_weight(), 0u);
    sim.run_for(1'000'000'000'000ull);
    EXPECT_EQ(sim.interactions(), 1'000'000'000'000ull);
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(sim.count_of({1}), 5u);
    EXPECT_EQ(sim.count_of({4}), 7u);
}

TEST(CensusSimulator, MatchesIndependentCountedCensusReplay) {
    // Replay the same seed twice: once counting through the simulator's own
    // census, once through the independent census::counted_census, and
    // compare state-by-state.
    three_sim sim{{}, binary_census(30, 20, 10), 11};
    sim.run_for(500);

    census::counted_census replay;
    sim.visit_states([&replay](const baselines::usd_agent& a, std::uint64_t count) {
        replay.increment(static_cast<std::uint64_t>(a.opinion), count);
        return true;
    });
    EXPECT_EQ(replay.total(), 60u);
    for (const auto opinion : {alpha_v, beta_v, undecided_v}) {
        const baselines::usd_agent probe{opinion};
        EXPECT_EQ(replay.count_of(static_cast<std::uint64_t>(opinion)), sim.count_of(probe));
    }
}

TEST(CensusSimulator, DeterministicPerSeedAndSensitiveToSeed) {
    // Sample the census mid-run (well before the dynamics absorb) so that
    // seed sensitivity is visible in the counts.
    const auto midrun_counts = [](std::uint64_t seed) {
        three_sim sim{{}, binary_census(500, 450, 50), seed};
        sim.advance(400);
        return std::array<std::uint64_t, 3>{
            sim.count_of({alpha_v}), sim.count_of({beta_v}), sim.count_of({undecided_v})};
    };
    EXPECT_EQ(midrun_counts(42), midrun_counts(42));
    // Different seeds must diverge somewhere in 400 interactions (equal
    // trajectories for these two seeds would indicate a broken stream).
    EXPECT_NE(midrun_counts(42), midrun_counts(43));
}

TEST(CensusSimulator, AgentVectorConstructorCompressesToCensus) {
    const std::vector<baselines::usd_agent> agents = {
        {alpha_v}, {beta_v}, {alpha_v}, {undecided_v}, {alpha_v}};
    three_sim sim{{}, agents, 3};
    EXPECT_EQ(sim.population_size(), 5u);
    EXPECT_EQ(sim.count_of({alpha_v}), 3u);
    EXPECT_EQ(sim.count_of({beta_v}), 1u);
    EXPECT_EQ(sim.count_of({undecided_v}), 1u);
    EXPECT_EQ(sim.occupied_states(), 3u);
}

TEST(CensusSimulator, OccupiedStatesMatchesVisitScan) {
    // The occupied list gains a slot when it fills and swap-removes it when
    // it empties; after every batch of stepped interactions it must hold
    // exactly the occupied states.  Three-state drains and refills its
    // undecided slot; the tournament empties and refills many slots (more
    // states are reached than are ever occupied at once).
    three_sim three{{}, binary_census(500, 450, 50), 19};
    for (int batch = 0; batch < 10; ++batch) {
        three.advance(200);
        test::expect_occupied_states_consistent(three);
    }
    const auto start = test::ordered_tournament(350, 4, 19);
    sim::census_simulator<core::plurality_protocol> tournament{start.protocol, start.agents, 19};
    for (int batch = 0; batch < 60; ++batch) {
        tournament.advance(350 * 50);
        test::expect_occupied_states_consistent(tournament);
    }
    EXPECT_GT(tournament.reachable_states(), tournament.occupied_states_hwm());
}

TEST(CensusSimulator, RejectsPopulationsBelowTwo) {
    EXPECT_THROW((three_sim{{}, binary_census(1, 0, 0), 1}), std::invalid_argument);
    EXPECT_THROW((three_sim{{}, binary_census(0, 0, 0), 1}), std::invalid_argument);
}

TEST(CensusSimulator, RejectsPopulationsBeyondThirtyTwoBits) {
    // The may-act weight counts ordered agent pairs, n(n−1), in 64 bits.
    EXPECT_NO_THROW((three_sim{{}, binary_census(0xffffffffull - 1, 1, 0), 1}));
    EXPECT_THROW((three_sim{{}, binary_census(0xffffffffull, 1, 0), 1}),
                 std::invalid_argument);
}

TEST(CensusSimulator, MemoryScalesWithStatesNotPopulation) {
    // Same protocol, 10^4x the population: the census footprint must not
    // grow with n (same three slots), which is the backend's entire point.
    three_sim small{{}, binary_census(50, 50, 0), 5};
    three_sim large{{}, binary_census(500000, 500000, 0), 5};
    small.run_for(100);
    large.run_for(100);
    EXPECT_EQ(small.memory_bytes(), large.memory_bytes());
}

TEST(CensusSimulator, MemoryCountsTheMayActMemo) {
    // The may-act memo keeps one byte per ordered class pair: for the
    // tournament's (stage, phase, kind) classes that is more than the class
    // trees hold before the run fills them.
    const auto cfg = core::protocol_config::make(core::algorithm_mode::unordered, 350, 4);
    const core::plurality_protocol protocol{cfg};
    const sim::census_simulator<core::plurality_protocol> tournament{
        protocol, core::plurality_protocol::initial_census(cfg, workload::make_bias_one(350, 4)),
        19};
    const std::size_t classes = protocol.activity_classes();
    EXPECT_GE(tournament.memory_bytes(), classes * classes);
}

TEST(CensusSimulator, MemoryCountsTheDeltaOutcomeTable) {
    // Table runs enumerate each randomized pair of the tournament once into
    // the δ outcome cache, whose every entry holds a two-state key.  At
    // n = 10⁶ a few hundred such pairs outweigh the census itself.
    constexpr std::uint32_t n = 1'000'000;
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, 2);
    sim::census_simulator<core::plurality_protocol> tournament{
        core::plurality_protocol{cfg},
        core::plurality_protocol::initial_census(cfg, workload::make_bias_one(n, 2)), 3};
    tournament.run_for(2ull * n);
    obs::snapshot observed;
    tournament.collect_metrics(observed);
    const std::uint64_t misses = test::counter_of(observed, obs::m_table_misses);
    ASSERT_GT(misses, 0u);
    EXPECT_GE(tournament.memory_bytes(), misses * 2 * sizeof(core::core_agent));
}

// -- state identity: a census state is its bytes -----------------------------

/// A padded agent (three bytes after the flag) is not a census state type:
/// two equal agents could differ in their padding.
struct padded_agent {
    bool flag = false;
    std::uint32_t value = 0;
};
static_assert(!sim::census_agent<padded_agent>);

// Every builtin scenario's agent type is.
static_assert(sim::census_agent<core::core_agent>);
static_assert(sim::census_agent<leader::leader_agent>);
static_assert(sim::census_agent<epidemic::epidemic_agent>);
static_assert(sim::census_agent<majority::four_state_agent>);
static_assert(sim::census_agent<majority::cancel_double_agent>);
static_assert(sim::census_agent<baselines::usd_agent>);
static_assert(sim::census_agent<loadbalance::load_agent>);

/// δ = identity, for any agent type: the census only has to keep states
/// apart.
template <class Agent>
struct frozen {
    using agent_t = Agent;
    void interact(agent_t&, agent_t&, sim::rng&) const noexcept {}
};

/// Builds a census over `states`, the i-th held by i + 1 agents, and checks
/// that every state got a slot of its own.
template <class Agent>
void expect_states_kept_apart(const std::vector<Agent>& states) {
    std::vector<sim::census_entry<Agent>> entries;
    for (std::size_t i = 0; i < states.size(); ++i) entries.push_back({states[i], i + 1});
    const sim::census_simulator<frozen<Agent>> census{{}, entries, 1};
    EXPECT_EQ(census.reachable_states(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i)
        EXPECT_EQ(census.count_of(entries[i].state), entries[i].count) << "state " << i;
}

/// `base` followed by one copy of it per mutation.
template <class Agent, class... Mutate>
std::vector<Agent> variants_of(const Agent& base, Mutate... mutate) {
    const auto variant = [&base](auto change) {
        Agent changed = base;
        change(changed);
        return changed;
    };
    return {base, variant(mutate)...};
}

TEST(CensusStore, KeepsEveryFieldOfTheTournamentAgentApart) {
    using core::core_agent;
    const auto states = variants_of(
        core_agent{}, [](core_agent& a) { a.maj_load = -1; },
        [](core_agent& a) { a.opinion = 3; }, [](core_agent& a) { a.count = 17; },
        [](core_agent& a) { a.tcnt = 1; }, [](core_agent& a) { a.cand_opinion = 2; },
        [](core_agent& a) { a.ann_opinion = 2; }, [](core_agent& a) { a.leader_cycle = 1; },
        [](core_agent& a) { a.junta_p = 5; }, [](core_agent& a) { a.le_rounds = 4; },
        [](core_agent& a) { a.prune_phase = -4; },
        [](core_agent& a) { a.role = core::agent_role::player; },
        [](core_agent& a) { a.stage = core::lifecycle_stage::tournaments; },
        [](core_agent& a) { a.phase = 9; },
        [](core_agent& a) { a.once_flags = core::once_saw_defender_win; },
        [](core_agent& a) { a.ever_initiated = true; }, [](core_agent& a) { a.winner = true; },
        [](core_agent& a) { a.tokens = 2; }, [](core_agent& a) { a.defender = true; },
        [](core_agent& a) { a.challenger = true; },
        [](core_agent& a) { a.participated = true; }, [](core_agent& a) { a.load = -3; },
        [](core_agent& a) { a.candidate = true; }, [](core_agent& a) { a.coin = true; },
        [](core_agent& a) { a.saw_one = true; }, [](core_agent& a) { a.is_leader = true; },
        [](core_agent& a) { a.finished = true; },
        [](core_agent& a) { a.ann_kind = core::announcement_kind::challenger; },
        [](core_agent& a) { a.visited_select = true; },
        [](core_agent& a) { a.po = core::player_side::defender_side; },
        [](core_agent& a) { a.junta_level = 1; },
        [](core_agent& a) { a.junta_active = false; },
        [](core_agent& a) { a.junta_member = true; }, [](core_agent& a) { a.counting = true; },
        [](core_agent& a) { a.met_same_opinion = true; });
    ASSERT_EQ(states.size(), 35u);  // the base and one variant per field
    expect_states_kept_apart(states);
}

TEST(CensusStore, KeepsLeaderFlagInTheLastPartialWordApart) {
    // leader_agent is 12 bytes, so `leader` sits in the word state_hash
    // reads partially.
    expect_states_kept_apart(
        variants_of(leader::leader_agent{}, [](leader::leader_agent& a) { a.leader = true; }));
}

TEST(CensusStore, KeepsOneByteStatesApart) {
    using enum majority::four_state;
    expect_states_kept_apart(std::vector<majority::four_state_agent>{
        {strong_plus}, {strong_minus}, {weak_plus}, {weak_minus}});
}

TEST(CensusStore, ExpandCensusKeepsEveryCountAndAddsNoAgentForAZeroCount) {
    sim::rng gen(5);
    const auto agents = sim::expand_census(binary_census(40, 0, 7), gen);
    ASSERT_EQ(agents.size(), 47u);
    const auto count = [&agents](std::uint32_t opinion) {
        return std::count_if(agents.begin(), agents.end(),
                             [opinion](const auto& a) { return a.opinion == opinion; });
    };
    EXPECT_EQ(count(alpha_v), 40);
    EXPECT_EQ(count(beta_v), 0);
    EXPECT_EQ(count(undecided_v), 7);
    // The shuffle moved the undecided agents away from the back, where the
    // in-order layout put them.
    EXPECT_LT(std::count_if(agents.end() - 7, agents.end(),
                            [](const auto& a) { return a.opinion == undecided_v; }),
              7);
}

TEST(CensusStore, ExpandCensusDrawsExactlyNMinusOneBoundedUniforms) {
    // Fisher–Yates over n agents: next_below(n), next_below(n − 1), …,
    // next_below(2), and nothing else — the generator ends where a copy
    // that made exactly those draws ends.
    sim::rng gen(11);
    sim::rng reference(11);
    const auto agents = sim::expand_census(binary_census(30, 20, 10), gen);
    ASSERT_EQ(agents.size(), 60u);
    for (std::uint64_t bound = 60; bound > 1; --bound) (void)reference.next_below(bound);
    EXPECT_EQ(gen.words(), reference.words());
    EXPECT_EQ(gen.next(), reference.next());
}

TEST(CensusStore, ExpandCensusReproducesTheShuffledOpinionLayoutOfTheTournament) {
    // Before the census became the one initial configuration, the
    // tournament's agents were built by laying out one opinion value per
    // agent in opinion order, shuffling those values with one Fisher–Yates
    // pass, and making each agent a collector of its value.  Expanding the
    // census must give the same bytes for the same seed, so no per-seed
    // agent trajectory moved.
    const auto dist = workload::make_two_heavy_plus_dust(2000, 20, 8);
    for (const auto mode : {core::algorithm_mode::ordered, core::algorithm_mode::improved}) {
        const auto cfg = core::protocol_config::make(mode, dist.n(), dist.k());
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            sim::rng gen(seed);
            const auto agents = core::plurality_protocol::make_population(cfg, dist, gen);

            sim::rng reference(seed);
            std::vector<std::uint32_t> opinions;
            for (std::uint32_t opinion = 1; opinion <= dist.k(); ++opinion)
                opinions.insert(opinions.end(), dist.support_of(opinion), opinion);
            for (std::size_t i = opinions.size(); i > 1; --i)
                std::swap(opinions[i - 1], opinions[reference.next_below(i)]);
            ASSERT_EQ(agents.size(), opinions.size());
            for (std::size_t i = 0; i < agents.size(); ++i) {
                core::core_agent expected;
                expected.opinion = opinions[i];
                expected.tokens = 1;
                expected.role = core::agent_role::collector;
                expected.stage = core::lifecycle_stage::init;
                if (mode == core::algorithm_mode::improved)
                    expected.prune_phase = -static_cast<std::int16_t>(cfg.prune_hours);
                ASSERT_TRUE(sim::same_state(agents[i], expected))
                    << "seed " << seed << " agent " << i;
            }
            EXPECT_EQ(gen.next(), reference.next());
        }
    }
}

// -- scenario-layer integration ----------------------------------------------

TEST(CensusBackend, EveryScenarioConvergesAtSmallN) {
    for (const auto& s : scenario::scenario_registry::instance().all()) {
        const auto params = test::small_params(s.family());
        const auto outcome = s.run(params, 2026, scenario::backend_kind::census);
        EXPECT_TRUE(outcome.converged) << s.name();
        EXPECT_GT(outcome.interactions, 0u) << s.name();
        for (const auto& m : outcome.metrics) {
            EXPECT_TRUE(std::isfinite(m.value)) << s.name() << "/" << m.name;
        }
    }
}

TEST(CensusBackend, RunIsDeterministicPerSeed) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 300;
    params.bias = 10;
    const auto a = s->run(params, 99, scenario::backend_kind::census);
    const auto b = s->run(params, 99, scenario::backend_kind::census);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_DOUBLE_EQ(a.parallel_time, b.parallel_time);
}

TEST(CensusBackend, JsonReportIsByteIdenticalAcrossThreadCounts) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 400;

    std::string previous;
    for (const std::size_t threads : {1u, 4u}) {
        const sim::trial_executor executor{threads};
        const auto result = scenario::run_scenario_trials(*s, params, 6, 17, executor,
                                                          scenario::backend_kind::census);
        std::ostringstream os;
        scenario::write_json_report(os, *s, params, 17, result,
                                    scenario::backend_kind::census);
        if (!previous.empty()) {
            EXPECT_EQ(previous, os.str());
        }
        previous = os.str();
        EXPECT_NE(previous.find("\"backend\": \"census\""), std::string::npos);
    }
}

// -- cross-backend distributional agreement -----------------------------------
//
// One calibrated agent / run_for / advance comparison per scenario (see
// tests/test_support.h for how the tolerance is derived).  The stepped side
// restates the scenario's census and calls the family's convergence
// predicate.

TEST(CensusBackend, EpidemicBroadcastTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    const std::vector<sim::census_entry<epidemic::epidemic_agent>> census{{{true, 1}, 1},
                                                                          {{false, 0}, 511}};
    const auto informed = [](const auto& sim) { return epidemic::all_informed(sim); };
    const auto stepped =
        test::stepped_mean_time(epidemic::epidemic_protocol{}, census, informed, 640.0, 30, 1001);
    test::expect_backends_agree(*s, params, 30, 1001, stepped);
}

TEST(CensusBackend, ThreeStateMajorityTimesAgreeAcrossBackends) {
    const auto* s = scenario::scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 600;
    params.bias = 60;
    const auto decided = [](const auto& sim) { return baselines::consensus_reached(sim); };
    const auto stepped = test::stepped_mean_time(baselines::usd_plurality_protocol{},
                                                 binary_census(330, 270, 0), decided, 600.0, 30,
                                                 2002);
    test::expect_backends_agree(*s, params, 30, 2002, stepped);
}

TEST(CensusBackend, LoadBalanceConservesTotalLoad) {
    const auto* s = scenario::scenario_registry::instance().find("loadbalance/averaging");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 1024;
    const auto outcome = s->run(params, 5, scenario::backend_kind::census);
    ASSERT_TRUE(outcome.converged);
    // correct() checks total-load conservation; the metric exposes it too.
    EXPECT_TRUE(outcome.correct);
    for (const auto& m : outcome.metrics) {
        if (m.name == "total_load") {
            EXPECT_DOUBLE_EQ(m.value, 1024.0);
        }
    }
}

}  // namespace
