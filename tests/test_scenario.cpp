// Tests for the unified scenario layer: registry completeness (every
// registered scenario runs to convergence at small n and reports sane
// metrics), determinism of the multi-trial runner across thread counts,
// the seed convention core::run_to_consensus shares with the plurality
// scenarios, registry bookkeeping, and the shared CLI surface (backend
// names and the numeric flag parsers).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "core/config.h"
#include "core/result.h"
#include "scenario/builtin.h"
#include "scenario/json_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"
#include "test_support.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using scenario::scenario_params;
using scenario::scenario_registry;

using test::small_params;

TEST(ScenarioRegistry, CoversEveryProtocolDirectory) {
    const auto& registry = scenario_registry::instance();
    EXPECT_GE(registry.size(), 9u);

    std::set<std::string> families;
    for (const auto& s : registry.all()) families.insert(s.family());
    const std::set<std::string> expected{"plurality", "baselines", "majority",
                                         "epidemic",  "leader",    "loadbalance"};
    EXPECT_EQ(families, expected);
}

TEST(ScenarioRegistry, NamesAreSortedAndFindable) {
    const auto& registry = scenario_registry::instance();
    std::string previous;
    for (const auto& s : registry.all()) {
        EXPECT_LT(previous, s.name());
        previous = s.name();
        const auto* found = registry.find(s.name());
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->name(), s.name());
    }
    EXPECT_EQ(registry.find("no/such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
    scenario_registry registry;
    scenario::register_builtin_scenarios(registry);
    EXPECT_THROW(scenario::register_builtin_scenarios(registry), std::invalid_argument);
}

TEST(ScenarioRegistry, EveryScenarioConvergesAtSmallN) {
    for (const auto& s : scenario_registry::instance().all()) {
        const auto params = small_params(s.family());
        const auto out = s.run(params, 1);
        EXPECT_TRUE(out.converged) << s.name();
        EXPECT_GT(out.parallel_time, 0.0) << s.name();
        EXPECT_GT(out.interactions, 0u) << s.name();
        EXPECT_FALSE(out.metrics.empty()) << s.name();
        for (const auto& m : out.metrics) {
            EXPECT_FALSE(m.name.empty()) << s.name();
            EXPECT_TRUE(std::isfinite(m.value)) << s.name() << ":" << m.name;
        }
    }
}

TEST(ScenarioRunner, SummaryCountsConvergedAndCorrect) {
    const auto* s = scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    const sim::trial_executor executor{1};
    const auto result =
        scenario::run_scenario_trials(*s, small_params("epidemic"), 4, 77, executor);
    EXPECT_EQ(result.outcomes.size(), 4u);
    EXPECT_EQ(result.summary.trials, 4u);
    EXPECT_EQ(result.summary.converged, 4u);
    EXPECT_EQ(result.summary.correct, 4u);
    EXPECT_DOUBLE_EQ(result.summary.success_rate(), 1.0);
    ASSERT_EQ(result.summary.mean_metrics.size(), 1u);
    EXPECT_EQ(result.summary.mean_metrics[0].name, "informed_fraction");
    EXPECT_DOUBLE_EQ(result.summary.mean_metrics[0].value, 1.0);
}

TEST(ScenarioRunner, JsonReportIsByteIdenticalAcrossThreadCounts) {
    const auto* s = scenario_registry::instance().find("baselines/usd");
    ASSERT_NE(s, nullptr);
    const auto params = small_params("baselines");

    const auto report_at = [&](std::size_t threads) {
        const sim::trial_executor executor{threads};
        const auto result = scenario::run_scenario_trials(*s, params, 6, 123, executor);
        std::ostringstream os;
        scenario::write_json_report(os, *s, params, 123, result);
        return os.str();
    };
    const std::string sequential = report_at(1);
    const std::string parallel = report_at(3);
    EXPECT_EQ(sequential, parallel);
}

TEST(ScenarioRunner, TracedRunMatchesPlainRunAndAnchorsAtTimeZero) {
    // The driver's one observer records trace rows and ticks the heartbeat;
    // on either backend, with or without a heartbeat beside the trace, the
    // outcome equals the plain run's.
    const auto* s = scenario_registry::instance().find("loadbalance/averaging");
    ASSERT_NE(s, nullptr);
    const auto params = small_params("loadbalance");

    for (const auto backend : {scenario::backend_kind::agent, scenario::backend_kind::census}) {
        const auto plain = s->run(params, 9, backend);
        for (const double heartbeat : {0.0, 60.0}) {
            SCOPED_TRACE(::testing::Message() << scenario::backend_name(backend)
                                              << ", progress_interval " << heartbeat);
            std::ostringstream csv;
            scenario::run_options options;
            options.trace_cadence = 100.0;
            options.trace_csv = &csv;
            options.progress_interval = heartbeat;
            options.progress_label = "traced";
            const auto traced = s->run(params, 9, backend, options);
            EXPECT_EQ(plain.converged, traced.converged);
            EXPECT_DOUBLE_EQ(plain.parallel_time, traced.parallel_time);
            EXPECT_EQ(plain.interactions, traced.interactions);
            ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
            for (std::size_t i = 0; i < plain.metrics.size(); ++i)
                EXPECT_DOUBLE_EQ(plain.metrics[i].value, traced.metrics[i].value);

            // First CSV row is the t = 0 sample even though the cadence (100)
            // far exceeds the check interval (1 parallel-time unit).  The
            // header row follows the `#` comment block documenting the
            // column units.
            const std::string text = csv.str();
            std::istringstream lines(text);
            std::string line;
            while (std::getline(lines, line) && line.starts_with("#")) {
            }
            EXPECT_EQ(line, "parallel_time,discrepancy,total_load");
            ASSERT_TRUE(std::getline(lines, line));
            EXPECT_EQ(line.substr(0, 2), "0,");
        }
    }
}

TEST(ScenarioRunner, TracedBatchTracesTrialZero) {
    // A traced batch writes trial 0's trace, the CSV a traced single run of
    // its seed writes, on every thread count, and its outcomes equal an
    // untraced batch's.
    const auto* s = scenario_registry::instance().find("majority/three-state");
    ASSERT_NE(s, nullptr);
    const auto params = small_params("majority");
    constexpr std::size_t trials = 3;
    constexpr std::uint64_t seed = 21;

    for (const auto backend : {scenario::backend_kind::agent, scenario::backend_kind::census}) {
        std::ostringstream single;
        scenario::run_options single_options;
        single_options.trace_cadence = 2.0;
        single_options.trace_csv = &single;
        (void)s->run(params, sim::derive_seed(seed, 0), backend, single_options);
        ASSERT_FALSE(single.str().empty());

        const auto plain = scenario::run_scenario_trials(*s, params, trials, seed,
                                                         sim::trial_executor{1}, backend);
        for (const std::size_t threads : {std::size_t{1}, trials}) {
            SCOPED_TRACE(::testing::Message() << scenario::backend_name(backend) << ", "
                                              << threads << " threads");
            std::ostringstream csv;
            scenario::run_options options;
            options.trace_cadence = 2.0;
            options.trace_csv = &csv;
            const auto traced = scenario::run_scenario_trials(
                *s, params, trials, seed, sim::trial_executor{threads}, backend, options);
            EXPECT_EQ(csv.str(), single.str());
            ASSERT_EQ(traced.outcomes.size(), plain.outcomes.size());
            for (std::size_t i = 0; i < trials; ++i) {
                EXPECT_EQ(traced.outcomes[i].converged, plain.outcomes[i].converged);
                EXPECT_EQ(traced.outcomes[i].correct, plain.outcomes[i].correct);
                EXPECT_EQ(traced.outcomes[i].interactions, plain.outcomes[i].interactions);
                EXPECT_DOUBLE_EQ(traced.outcomes[i].parallel_time,
                                 plain.outcomes[i].parallel_time);
            }
        }
    }
}

// A trial seed names one trajectory everywhere: `core::run_to_consensus` on
// a plurality scenario's own (cfg, dist) seeds, lays out and checks its run
// as the scenario driver does, so it runs exactly that scenario's trial.
class SeedConvention : public ::testing::TestWithParam<core::algorithm_mode> {};

TEST_P(SeedConvention, RunToConsensusIsThePluralityScenarioTrial) {
    const auto mode = GetParam();
    const std::string name = "plurality/" + ::testing::PrintToString(mode);
    const auto* s = scenario_registry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    scenario_params params;
    params.n = 512;
    params.k = 3;
    const auto cfg = core::protocol_config::make(mode, params.n, params.k);
    const auto dist = workload::make_bias_one(params.n, params.k);
    for (const std::uint64_t seed : {1u, 7u, 12345u}) {
        const auto helper = core::run_to_consensus(cfg, dist, seed);
        const auto trial = s->run(params, seed);
        EXPECT_EQ(helper.interactions, trial.interactions) << name << " seed " << seed;
        EXPECT_EQ(helper.parallel_time, trial.parallel_time) << name << " seed " << seed;
        EXPECT_EQ(helper.converged, trial.converged) << name << " seed " << seed;
        EXPECT_EQ(helper.correct, trial.correct) << name << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SeedConvention,
                         ::testing::Values(core::algorithm_mode::ordered,
                                           core::algorithm_mode::unordered,
                                           core::algorithm_mode::improved),
                         ::testing::PrintToStringParamName());

TEST(ScenarioBackends, ParseBackendAcceptsExactlyTheAdvertisedList) {
    // backend_list() is the single source of truth for CLI error messages:
    // every pipe-separated name it advertises must parse, round-trip through
    // backend_name, and anything else must be rejected.
    std::string names = scenario::backend_list();
    std::size_t parsed = 0;
    for (std::size_t start = 0; start <= names.size();) {
        std::size_t end = names.find('|', start);
        if (end == std::string::npos) end = names.size();
        const std::string name = names.substr(start, end - start);
        const auto backend = scenario::parse_backend(name);
        ASSERT_TRUE(backend.has_value()) << name;
        EXPECT_EQ(scenario::backend_name(*backend), name);
        ++parsed;
        start = end + 1;
    }
    EXPECT_EQ(parsed, 3u);
    EXPECT_FALSE(scenario::parse_backend("warp").has_value());
    EXPECT_FALSE(scenario::parse_backend("").has_value());
    EXPECT_FALSE(scenario::parse_backend("batch").has_value());
}

TEST(ScenarioBackends, RetiredBatchEnumeratorThrowsInsteadOfFallingThrough) {
    const auto* s = scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    EXPECT_THROW((void)s->run(small_params("epidemic"), 1, scenario::backend_kind::batch),
                 std::invalid_argument);
}

TEST(ScenarioBackends, EveryScenarioStartsFromOneConfigurationOnEveryBackend) {
    // A time budget of half an interaction executes none, so each outcome
    // reads the initial configuration: the census the spec writes, which
    // the agent backend expands into agents and the census backend
    // deposits as it is.  Its metrics, convergence and correctness must not
    // depend on the backend — a metric that counts occupied states where it
    // means agents (a counting predicate written as a forall) differs here.
    using scenario::backend_kind;
    for (const auto& s : scenario_registry::instance().all()) {
        auto params = small_params(s.family());
        params.time_budget = 0.5 / params.n;
        const auto agent = s.run(params, 3, backend_kind::agent);
        EXPECT_EQ(agent.interactions, 0u) << s.name();
        for (const auto backend : {backend_kind::census, backend_kind::leap}) {
            const auto other = s.run(params, 3, backend);
            const std::string label = s.name() + " on " + scenario::backend_name(backend);
            EXPECT_EQ(other.interactions, 0u) << label;
            EXPECT_EQ(other.converged, agent.converged) << label;
            EXPECT_EQ(other.correct, agent.correct) << label;
            ASSERT_EQ(other.metrics.size(), agent.metrics.size()) << label;
            for (std::size_t i = 0; i < agent.metrics.size(); ++i) {
                EXPECT_EQ(other.metrics[i].name, agent.metrics[i].name) << label;
                EXPECT_EQ(other.metrics[i].value, agent.metrics[i].value)
                    << label << ": " << agent.metrics[i].name;
            }
        }
    }
}

/// Offers `flag value` to the shared parser, starting from default params.
std::pair<scenario::flag_parse, scenario_params> parse_flag(const char* flag,
                                                            const char* value) {
    scenario_params params;
    std::string arg0 = flag;
    std::string arg1 = value;
    char* argv[] = {arg0.data(), arg1.data()};
    int i = 0;
    const auto result = scenario::parse_param_flag(params, 2, argv, i);
    EXPECT_EQ(i, 1) << flag << " " << value;
    return {result, params};
}

TEST(ScenarioParams, CountFlagsAcceptOnlyWholeNumbersFittingUint32) {
    EXPECT_EQ(parse_flag("--n", "350").first, scenario::flag_parse::consumed);
    EXPECT_EQ(parse_flag("--n", "350").second.n, 350u);
    EXPECT_EQ(parse_flag("--n", "4294967295").second.n, 4294967295u);
    EXPECT_EQ(parse_flag("--n", "0").second.n, 0u);
    EXPECT_EQ(parse_flag("--k", "007").second.k, 7u);
    EXPECT_EQ(parse_flag("--bias", "20").second.bias, 20u);
    EXPECT_EQ(parse_flag("--dust", "8").second.dust, 8u);
    EXPECT_EQ(parse_flag("--sources", "3").second.sources, 3u);
    // A strtoul cast would wrap 5000000000 to 705032704 and -5 to
    // 4294967291, and would read a number off the front of the rest.
    for (const char* flag : {"--n", "--k", "--bias", "--dust", "--sources"}) {
        for (const char* value : {"5000000000", "4294967296", "-5", "-0", "+7", " 7", "7 ",
                                  "12abc", "", "0x10", "1e3"}) {
            const auto [result, params] = parse_flag(flag, value);
            EXPECT_EQ(result, scenario::flag_parse::invalid_value) << flag << " '" << value << "'";
            EXPECT_EQ(params.n, scenario_params{}.n);
            EXPECT_EQ(params.k, scenario_params{}.k);
        }
    }
}

TEST(ScenarioParams, RealFlagsAcceptOnlyFiniteNumbersInRange) {
    // Valid values keep the value strtod gives them.
    EXPECT_EQ(parse_flag("--fraction", "50").first, scenario::flag_parse::consumed);
    EXPECT_EQ(parse_flag("--fraction", "12.5").second.fraction, 12.5 / 100.0);
    EXPECT_EQ(parse_flag("--fraction", "99.9").second.fraction, 99.9 / 100.0);
    EXPECT_EQ(parse_flag("--zipf-s", "1.4").second.zipf_s, 1.4);
    EXPECT_EQ(parse_flag("--zipf-s", "0").second.zipf_s, 0.0);
    EXPECT_EQ(parse_flag("--time-budget", "0.005").second.time_budget, 0.005);
    EXPECT_EQ(parse_flag("--time-budget", "1e3").second.time_budget, 1000.0);
    EXPECT_EQ(parse_flag("--time-budget", "0").second.time_budget, 0.0);
    // An unchecked strtod reads "abc" as 0 (the scenario's default budget,
    // a Zipf exponent of 0) and "5x" as 5.
    for (const char* flag : {"--fraction", "--zipf-s", "--time-budget"}) {
        for (const char* value : {"abc", "", "5x", "1.5 ", "inf", "-inf", "nan", "1e999", "-5"}) {
            const auto [result, params] = parse_flag(flag, value);
            EXPECT_EQ(result, scenario::flag_parse::invalid_value) << flag << " '" << value << "'";
            EXPECT_EQ(params.fraction, scenario_params{}.fraction);
            EXPECT_EQ(params.zipf_s, scenario_params{}.zipf_s);
            EXPECT_EQ(params.time_budget, scenario_params{}.time_budget);
        }
    }
    // The dominant share is a percentage strictly inside (0, 100).
    for (const char* value : {"0", "-0", "100", "150"}) {
        EXPECT_EQ(parse_flag("--fraction", value).first, scenario::flag_parse::invalid_value)
            << "--fraction '" << value << "'";
    }
}

TEST(ScenarioParams, WholeNumbersMustFitTheirRange) {
    // The rule the drivers apply to --trials, --seed and --threads.
    EXPECT_EQ(scenario::parse_whole_number("0"), 0u);
    EXPECT_EQ(scenario::parse_whole_number("18446744073709551615"), UINT64_MAX);
    for (const char* value : {"18446744073709551616", "-1", "abc", "", "3 ", "+3", "1e3"}) {
        EXPECT_FALSE(scenario::parse_whole_number(value).has_value()) << value;
    }
    EXPECT_EQ(scenario::parse_whole_number("4294967295", UINT32_MAX), UINT32_MAX);
    EXPECT_FALSE(scenario::parse_whole_number("4294967296", UINT32_MAX).has_value());
    EXPECT_EQ(std::string(scenario::param_flag_expectation("--n")),
              "a whole number from 0 to 4294967295");
}

constexpr scenario::backend_kind every_backend[] = {
    scenario::backend_kind::agent, scenario::backend_kind::census, scenario::backend_kind::leap};

/// The std::invalid_argument one trial of `s` raises on `backend`; empty
/// when the trial runs.
std::string rejection(const scenario::any_scenario& s, const scenario_params& p,
                      scenario::backend_kind backend) {
    try {
        (void)s.run(p, 1, backend);
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    return "";
}

TEST(ScenarioParams, MajorityBiasBeyondNFailsInsteadOfClamping) {
    // A gap clamped to n would silently run from a unanimous start.
    std::size_t families = 0;
    for (const auto& s : scenario::scenario_registry::instance().all()) {
        if (s.family() != "majority") continue;
        ++families;
        auto p = small_params("majority");
        for (const auto backend : every_backend) {
            p.bias = p.n + 1;
            EXPECT_EQ(rejection(s, p, backend),
                      "invalid --bias 301 for --n 300 (expected a gap from 0 to n)")
                << s.name() << " on " << scenario::backend_name(backend);
            p.bias = p.n;  // unanimous, but asked for: valid
            EXPECT_EQ(rejection(s, p, backend), "") << s.name();
        }
    }
    EXPECT_EQ(families, 4u);
}

TEST(ScenarioParams, EpidemicSourcesOutsideOneToNFail) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    auto p = small_params("epidemic");
    const auto expected = [](const char* sources) {
        return "invalid --sources " + std::string(sources) +
               " for --n 512 (expected 1 to n informed agents)";
    };
    for (const auto backend : every_backend) {
        p.sources = 0;  // could never converge
        EXPECT_EQ(rejection(*s, p, backend), expected("0")) << scenario::backend_name(backend);
        p.sources = p.n + 1;
        EXPECT_EQ(rejection(*s, p, backend), expected("513")) << scenario::backend_name(backend);
        p.sources = p.n;
        EXPECT_EQ(rejection(*s, p, backend), "") << scenario::backend_name(backend);
    }
}

TEST(ScenarioWorkloads, UnknownNameThrows) {
    scenario_params p;
    p.workload = "banana";
    sim::rng gen(1);
    EXPECT_THROW((void)scenario::make_workload(p, gen), std::invalid_argument);
}

}  // namespace
