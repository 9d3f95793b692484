// Tests for the observability layer (src/obs/): instruments, snapshot merge
// rules, the determinism contract of count-valued metrics across thread
// counts / backends / repeated runs, backend conservation invariants, the
// sidecar and Prometheus sinks, and the progress heartbeat.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/catalogue.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/snapshot.h"
#include "scenario/metrics_report.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"
#include "util/json.h"
#include "test_support.h"

namespace {

using namespace plurality;

TEST(ObsInstruments, CounterAccumulates) {
    obs::counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add(1);
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(ObsInstruments, Log2HistogramBucketsByBitWidth) {
    // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b).
    obs::log2_histogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    h.record(7);
    h.record(8);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.sum(), 25u);
    const auto buckets = h.buckets();
    EXPECT_EQ(buckets[0], 1u);  // {0}
    EXPECT_EQ(buckets[1], 1u);  // {1}
    EXPECT_EQ(buckets[2], 2u);  // {2, 3}
    EXPECT_EQ(buckets[3], 2u);  // {4, 7}
    EXPECT_EQ(buckets[4], 1u);  // {8}
}

TEST(ObsInstruments, PhaseTimerAccumulatesTicks) {
    obs::phase_timer t;
    t.add_ticks(100);
    t.add_ticks(50);
    EXPECT_EQ(t.ticks(), 150u);
    EXPECT_GT(t.seconds(), 0.0);
}

TEST(ObsInstruments, DisabledPolicyIsInert) {
    static_assert(obs::enabled::active);
    static_assert(!obs::disabled::active);
    // The no-op twins accept the full write API and observably do nothing.
    obs::disabled::counter_t c;
    c.add(5);
    obs::disabled::histogram_t h;
    h.record(5);
    obs::disabled::timer_t t;
    t.add_ticks(5);
    // All twins are empty: a [[no_unique_address]] member of any of these
    // costs nothing in an instrumented struct.
    static_assert(std::is_empty_v<obs::disabled::counter_t>);
    static_assert(std::is_empty_v<obs::disabled::histogram_t>);
    static_assert(std::is_empty_v<obs::disabled::timer_t>);
}

TEST(ObsSnapshot, MergeAppliesKindSpecificRules) {
    obs::log2_histogram ha;
    ha.record(1);
    ha.record(4);
    obs::log2_histogram hb;
    hb.record(4);

    obs::snapshot a;
    a.add_counter("c", 2);
    a.add_gauge("g", 7);
    a.add_histogram("h", ha);
    a.add_timer("t", 0.5);

    obs::snapshot b;
    b.add_counter("c", 3);
    b.add_gauge("g", 4);
    b.add_histogram("h", hb);
    b.add_timer("t", 0.25);
    b.add_counter("only_b", 1);

    a.merge_from(b);
    EXPECT_EQ(a.find("c")->value, 5u);   // counters sum
    EXPECT_EQ(a.find("g")->value, 7u);   // gauges max
    const auto* h = a.find("h");         // histograms merge element-wise
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 3u);
    EXPECT_EQ(h->sum, 9u);
    EXPECT_EQ(h->buckets[1], 1u);
    EXPECT_EQ(h->buckets[3], 2u);
    EXPECT_DOUBLE_EQ(a.find("t")->seconds, 0.75);  // timers sum
    EXPECT_EQ(a.find("only_b")->value, 1u);        // unseen names append
}

TEST(ObsCatalogue, EveryEmittedNameIsRegistered) {
    // collect_metrics implementations and the sidecar writer spell names via
    // the m_* constants, so it suffices that each constant has a catalogue
    // row (what --list-metrics prints and OBSERVABILITY.md documents).
    const auto catalogue = obs::metric_catalogue();
    const auto registered = [&](const char* name) {
        for (const auto& row : catalogue) {
            if (std::string_view(row.name) == name) return true;
        }
        return false;
    };
    for (const char* name :
         {obs::m_interactions, obs::m_rng_words, obs::m_occupied_hwm, obs::m_reachable_states,
          obs::m_fenwick_descents, obs::m_runs, obs::m_collisions, obs::m_absorbed_fastpath,
          obs::m_run_length, obs::m_delta_deterministic, obs::m_delta_grouped,
          obs::m_delta_fallback, obs::m_table_hits, obs::m_table_misses, obs::m_phase_run_length,
          obs::m_phase_margins, obs::m_phase_table, obs::m_phase_collision, obs::m_trial_wall,
          obs::m_run_wall, obs::m_threads, obs::m_thread_utilization}) {
        EXPECT_TRUE(registered(name)) << name;
    }
}

/// Renders the count-valued (deterministic) sections of a merged snapshot as
/// the exact bytes the report and sidecar would embed.
std::string count_sections_bytes(const obs::snapshot& snap) {
    std::ostringstream os;
    util::json_writer w(os);
    w.begin_object();
    obs::write_count_sections(w, snap);
    w.end_object();
    return os.str();
}

scenario::scenario_run_result run_trials(const scenario::any_scenario& s, std::size_t threads,
                                         scenario::backend_kind backend, std::uint64_t seed) {
    scenario::scenario_params params;
    params.n = 512;
    params.k = 3;
    const sim::trial_executor executor{threads};
    return scenario::run_scenario_trials(s, params, 6, seed, executor, backend);
}

TEST(ObsDeterminism, CountMetricsAreByteIdenticalAcrossThreadCounts) {
    // The determinism contract of the main document extends to the metrics
    // layer: count-valued samples are a pure function of (scenario, params,
    // trials, base_seed, backend) — byte-for-byte, at any --threads — on
    // every backend, for both an anonymous-ballot family (epidemic) and an
    // ordered-ballot one (plurality).
    using scenario::backend_kind;
    for (const char* name : {"epidemic/broadcast", "plurality/ordered"}) {
        const auto* s = scenario::scenario_registry::instance().find(name);
        ASSERT_NE(s, nullptr) << name;
        for (const auto backend : {backend_kind::agent, backend_kind::census}) {
            const auto serial = run_trials(*s, 1, backend, 11);
            const auto threaded = run_trials(*s, 4, backend, 11);
            EXPECT_EQ(count_sections_bytes(serial.summary.observed),
                      count_sections_bytes(threaded.summary.observed))
                << name << " backend " << scenario::backend_name(backend);
        }
    }
}

TEST(ObsDeterminism, CountMetricsAreStablePerSeed) {
    using scenario::backend_kind;
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    for (const auto backend : {backend_kind::agent, backend_kind::census}) {
        const auto first = run_trials(*s, 1, backend, 23);
        const auto again = run_trials(*s, 1, backend, 23);
        EXPECT_EQ(count_sections_bytes(first.summary.observed),
                  count_sections_bytes(again.summary.observed))
            << scenario::backend_name(backend);
        const auto other_seed = run_trials(*s, 1, backend, 24);
        EXPECT_NE(count_sections_bytes(first.summary.observed),
                  count_sections_bytes(other_seed.summary.observed))
            << scenario::backend_name(backend) << ": seed must matter";
    }
}

TEST(ObsDeterminism, BackendCountersSatisfyConservation) {
    // Structural invariants tie the counters to the simulation they claim to
    // describe.  Census: every interaction is applied on exactly one of the
    // three δ paths of a table run, is a run-ending collision, or was
    // absorbed (the absorbed-census fast path, or a skipped identity while
    // stepping); a stepped interaction that calls δ takes two Fenwick
    // descents and counts as one per-pair δ call.  Epidemic stays on the
    // table; the tournament steps once many states are occupied and skips
    // most of its interactions, the leader election's included.
    using scenario::backend_kind;
    using test::counter_of;
    for (const char* name : {"epidemic/broadcast", "plurality/ordered", "plurality/improved"}) {
        const auto* s = scenario::scenario_registry::instance().find(name);
        ASSERT_NE(s, nullptr) << name;
        const auto census = run_trials(*s, 1, backend_kind::census, 31).summary.observed;
        const std::uint64_t interactions = counter_of(census, obs::m_interactions);
        const std::uint64_t absorbed = counter_of(census, obs::m_absorbed_fastpath);
        EXPECT_EQ(counter_of(census, obs::m_delta_deterministic) +
                      counter_of(census, obs::m_delta_grouped) +
                      counter_of(census, obs::m_delta_fallback) +
                      counter_of(census, obs::m_collisions) + absorbed,
                  interactions)
            << name;
        EXPECT_LE(counter_of(census, obs::m_fenwick_descents),
                  2 * counter_of(census, obs::m_delta_fallback))
            << name;
        if (std::string(name) == "epidemic/broadcast") {
            EXPECT_EQ(counter_of(census, obs::m_fenwick_descents), 0u) << name;
        } else {
            EXPECT_GT(2 * absorbed, interactions) << name;
        }
        // The run-length histogram counts every collision-free run.
        ASSERT_NE(census.find(obs::m_run_length), nullptr) << name;
        EXPECT_EQ(census.find(obs::m_run_length)->count, counter_of(census, obs::m_runs)) << name;
    }
    // Stepping alone: every interaction is executed — its initiator and
    // responder located by exactly two Fenwick descents, one per-pair δ
    // call — or skipped as the identity of a class pair the tournament
    // declares inactive (absorbed).
    const auto start = test::ordered_tournament(350, 4, 31);
    sim::census_simulator<core::plurality_protocol> stepped{start.protocol, start.agents, 31};
    stepped.advance(350 * 1000);
    obs::snapshot observed;
    stepped.collect_metrics(observed);
    const std::uint64_t absorbed = counter_of(observed, obs::m_absorbed_fastpath);
    const std::uint64_t executed = counter_of(observed, obs::m_interactions) - absorbed;
    EXPECT_GT(absorbed, 0u);
    EXPECT_EQ(counter_of(observed, obs::m_fenwick_descents), 2 * executed);
    EXPECT_EQ(counter_of(observed, obs::m_delta_fallback), executed);
    EXPECT_EQ(counter_of(observed, obs::m_runs), 0u);
}

TEST(ObsSidecar, MetricsReportSeparatesDeterministicFromTiming) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    const sim::trial_executor executor{1};
    const auto result = scenario::run_scenario_trials(*s, params, 2, 7, executor,
                                                      scenario::backend_kind::leap);

    std::ostringstream os;
    scenario::write_metrics_report(os, *s, params, 7, result, scenario::backend_kind::leap);
    const std::string doc = os.str();

    for (const char* required :
         {"\"schema\": \"plurality_metrics/1\"", "\"deterministic\"", "\"timing\"",
          "\"counters\"", "\"gauges\"", "\"histograms\"", "\"phase_seconds\"",
          "\"trial_wall_seconds_total\"", "\"wall_seconds\"", "\"threads\"",
          "\"thread_utilization\"", "\"interactions_total\"", "\"run_length_log2\""}) {
        EXPECT_NE(doc.find(required), std::string::npos) << required;
    }
    // The timing block follows the deterministic block, and no *_seconds key
    // precedes it: timers cannot leak into the deterministic half.
    const auto deterministic_at = doc.find("\"deterministic\"");
    const auto timing_at = doc.find("\"timing\"");
    ASSERT_NE(deterministic_at, std::string::npos);
    ASSERT_NE(timing_at, std::string::npos);
    EXPECT_LT(deterministic_at, timing_at);
    EXPECT_GT(doc.find("_seconds\""), timing_at);
}

TEST(ObsSidecar, PrometheusExpositionCarriesTypedLabelledSeries) {
    const auto* s = scenario::scenario_registry::instance().find("epidemic/broadcast");
    ASSERT_NE(s, nullptr);
    scenario::scenario_params params;
    params.n = 512;
    const sim::trial_executor executor{1};
    const auto result = scenario::run_scenario_trials(*s, params, 2, 7, executor,
                                                      scenario::backend_kind::leap);

    std::ostringstream os;
    scenario::write_prometheus_report(os, *s, result, scenario::backend_kind::leap);
    const std::string text = os.str();

    EXPECT_NE(text.find("# TYPE plurality_interactions_total counter"), std::string::npos);
    EXPECT_NE(text.find("{scenario=\"epidemic/broadcast\",backend=\"leap\"}"),
              std::string::npos);
    // Histogram series: cumulative le-buckets with the +Inf terminator.
    EXPECT_NE(text.find("plurality_run_length_log2_bucket"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("plurality_run_length_log2_count"), std::string::npos);
}

TEST(ObsHeartbeat, EmitsProgressAndCompletionLines) {
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    {
        // Interval 0 emits on every tick (the test hook — real callers pass
        // seconds).
        obs::heartbeat pulse("unit-test", 1000, 0.0, out);
        pulse.tick(250, 3);
        pulse.tick(500, 2);
        pulse.finish(1000, 1);
    }
    std::rewind(out);
    std::string text(4096, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), out));
    std::fclose(out);

    EXPECT_NE(text.find("progress unit-test:"), std::string::npos) << text;
    EXPECT_NE(text.find("25.0%"), std::string::npos) << text;
    EXPECT_NE(text.find("occupied"), std::string::npos) << text;
    EXPECT_NE(text.find("done in"), std::string::npos) << text;
}

TEST(ObsHeartbeat, UnboundedBudgetOmitsPercent) {
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    {
        obs::heartbeat pulse("unit-test", UINT64_MAX, 0.0, out);
        pulse.tick(250, 3);
        pulse.finish(500, 1);
    }
    std::rewind(out);
    std::string text(4096, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), out));
    std::fclose(out);

    EXPECT_NE(text.find("progress unit-test:"), std::string::npos) << text;
    EXPECT_EQ(text.find('%'), std::string::npos) << text;
    EXPECT_EQ(text.find("eta"), std::string::npos) << text;
}

}  // namespace
