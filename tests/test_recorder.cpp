// Unit tests for the trace recorder (scenario/trace_recorder.h).
#include <gtest/gtest.h>

#include <sstream>

#include "epidemic/epidemic.h"
#include "scenario/scenario.h"
#include "scenario/trace_recorder.h"
#include "sim/simulation.h"

namespace {

using plurality::epidemic::epidemic_agent;
using plurality::epidemic::epidemic_protocol;
using plurality::scenario::metric;
using plurality::scenario::trace_recorder;
using sim_t = plurality::sim::simulation<epidemic_protocol>;

sim_t make_sim(std::uint32_t n) {
    std::vector<epidemic_agent> agents(n);
    agents[0] = {true, 1};
    return {epidemic_protocol{}, std::move(agents), 9};
}

std::vector<metric> informed_row(const sim_t& sim) {
    return {{"informed", static_cast<double>(plurality::epidemic::informed_count(sim))}};
}

/// What the scenario driver's observer does at a check: record `row` if a
/// row is due.  Returns true if one was recorded.
bool check(trace_recorder& rec, const sim_t& sim, const std::vector<metric>& row) {
    if (!rec.due(sim.parallel_time())) return false;
    rec.record(sim.parallel_time(), row);
    return true;
}

TEST(Recorder, SamplesAtCadence) {
    auto s = make_sim(64);
    trace_recorder rec(1.0);
    for (int i = 0; i < 10; ++i) {
        s.run_for(64);  // exactly one parallel-time unit
        check(rec, s, informed_row(s));
    }
    EXPECT_GE(rec.samples(), 9u);
    EXPECT_LE(rec.samples(), 10u);
}

TEST(Recorder, RespectsCadenceGap) {
    auto s = make_sim(64);
    trace_recorder rec(100.0);
    for (int i = 0; i < 20; ++i) {
        s.run_for(64);
        check(rec, s, {{"informed", 0.0}});
    }
    // 20 time units with cadence 100: only the first sample is taken.
    EXPECT_EQ(rec.samples(), 1u);
}

TEST(Recorder, FirstSampleAlwaysTakenAtTimeZero) {
    // Cadence far above the check interval: the time-0 grid point is still
    // due on the very first check, so a caller checking at t = 0 (the
    // convergence layer's observer) records its first row at exactly 0.
    auto s = make_sim(64);
    trace_recorder rec(1000.0);
    EXPECT_TRUE(check(rec, s, informed_row(s)));  // before any interaction
    for (int i = 0; i < 10; ++i) {
        s.run_for(64);
        check(rec, s, informed_row(s));
    }
    ASSERT_EQ(rec.samples(), 1u);
    EXPECT_DOUBLE_EQ(rec.times().front(), 0.0);
    EXPECT_DOUBLE_EQ(rec.row(0).front(), 1.0);
}

TEST(Recorder, SamplesAlignToCadenceGridBoundary) {
    // Checks every 0.5 time units with cadence 2: rows land on the grid
    // points 0, 2, 4, ... — not on a drifting last-sample-plus-cadence
    // schedule.
    auto s = make_sim(64);
    trace_recorder rec(2.0);
    check(rec, s, {{"zero", 0.0}});  // t = 0
    for (int i = 0; i < 16; ++i) {
        s.run_for(32);  // half a parallel-time unit
        check(rec, s, {{"zero", 0.0}});
    }
    // 8 time units total: rows at 0, 2, 4, 6, 8.
    ASSERT_EQ(rec.samples(), 5u);
    for (std::size_t i = 0; i < rec.samples(); ++i) {
        EXPECT_DOUBLE_EQ(rec.times()[i], 2.0 * static_cast<double>(i));
    }
}

TEST(Recorder, LateFirstCallSamplesImmediately) {
    // If the caller only starts checking after the cadence has elapsed, the
    // overdue grid point fires on the first check and the schedule realigns
    // to the grid.
    auto s = make_sim(64);
    trace_recorder rec(2.0);
    s.run_for(3 * 64);  // t = 3: grid points 0 and 2 already passed
    EXPECT_TRUE(check(rec, s, {{"zero", 0.0}}));
    s.run_for(64);  // t = 4: next grid point
    EXPECT_TRUE(check(rec, s, {{"zero", 0.0}}));
    ASSERT_EQ(rec.samples(), 2u);
    EXPECT_DOUBLE_EQ(rec.times()[0], 3.0);
    EXPECT_DOUBLE_EQ(rec.times()[1], 4.0);
}

TEST(Recorder, SeriesValuesAreMonotoneForEpidemic) {
    auto s = make_sim(256);
    trace_recorder rec(1.0);
    while (plurality::epidemic::informed_count(s) < 256) {
        s.run_for(64);
        check(rec, s, informed_row(s));
    }
    ASSERT_GE(rec.samples(), 2u);
    for (std::size_t i = 1; i < rec.samples(); ++i) EXPECT_GE(rec.row(i)[0], rec.row(i - 1)[0]);
    EXPECT_GT(rec.row(rec.samples() - 1)[0], rec.row(0)[0]);
}

TEST(Recorder, CsvOutput) {
    auto s = make_sim(64);
    trace_recorder rec(1.0);
    s.run_for(64);
    check(rec, s, {{"a", 1.5}, {"b", 2.5}});
    std::ostringstream oss;
    rec.write_csv(oss);
    const std::string csv = oss.str();
    EXPECT_NE(csv.find("parallel_time,a,b\n1,1.5,2.5\n"), std::string::npos) << csv;
}

TEST(Recorder, CsvCommentHeaderDocumentsUnitsBeforeTheHeaderRow) {
    auto s = make_sim(64);
    trace_recorder rec(1.0);
    check(rec, s, {{"a", 1.0}});
    std::ostringstream oss;
    rec.write_csv(oss);

    // Every line before the header row is a '#' comment (so comment-skipping
    // CSV parsers see a plain headed file), the comments name the units, and
    // no comment follows the header.
    std::istringstream lines(oss.str());
    std::string line;
    std::size_t comments = 0;
    while (std::getline(lines, line) && line.starts_with("#")) ++comments;
    EXPECT_GE(comments, 1u);
    EXPECT_EQ(line, "parallel_time,a");
    EXPECT_NE(oss.str().find("parallel-time units"), std::string::npos);
    while (std::getline(lines, line)) EXPECT_FALSE(line.starts_with("#")) << line;
}

TEST(Recorder, SampleExactlyOnTheGridBoundaryFiresAndAdvancesTheGrid) {
    // A check at exactly t = cadence is "at the due point", not before it:
    // the row is recorded and the next due point moves strictly ahead, so an
    // immediate re-check at the same time does not record twice.
    auto s = make_sim(64);
    trace_recorder rec(1.0);
    EXPECT_TRUE(check(rec, s, {{"t", s.parallel_time()}}));   // t = 0 anchor
    s.run_for(64);                                            // exactly one parallel-time unit
    EXPECT_TRUE(check(rec, s, {{"t", s.parallel_time()}}));   // t = 1.0, on the boundary
    EXPECT_FALSE(check(rec, s, {{"t", s.parallel_time()}}));  // same instant: already taken
    ASSERT_EQ(rec.samples(), 2u);
    EXPECT_DOUBLE_EQ(rec.times()[1], 1.0);
}

TEST(Recorder, MultipleSeriesStayAligned) {
    // A sample is one row: its values keep the header's order.
    auto s = make_sim(64);
    trace_recorder rec(0.5);
    for (int i = 0; i < 8; ++i) {
        s.run_for(40);
        check(rec, s, {{"time_copy", s.parallel_time()}, {"const", 7.0}});
    }
    ASSERT_EQ(rec.names(), (std::vector<std::string>{"time_copy", "const"}));
    ASSERT_GE(rec.samples(), 1u);
    for (std::size_t i = 0; i < rec.samples(); ++i) {
        ASSERT_EQ(rec.row(i).size(), 2u);
        EXPECT_DOUBLE_EQ(rec.row(i)[0], rec.times()[i]);
        EXPECT_DOUBLE_EQ(rec.row(i)[1], 7.0);
    }
}

}  // namespace
