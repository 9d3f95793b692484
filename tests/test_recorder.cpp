// Unit tests for the time-series recorder (trace/recorder.h).
#include <gtest/gtest.h>

#include <sstream>

#include "epidemic/epidemic.h"
#include "sim/simulation.h"
#include "trace/recorder.h"

namespace {

using plurality::epidemic::epidemic_agent;
using plurality::epidemic::epidemic_protocol;
using sim_t = plurality::sim::simulation<epidemic_protocol>;

sim_t make_sim(std::uint32_t n) {
    std::vector<epidemic_agent> agents(n);
    agents[0] = {true, 1};
    return {epidemic_protocol{}, std::move(agents), 9};
}

TEST(Recorder, SamplesAtCadence) {
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(1.0);
    rec.add_series("informed", [](const sim_t& sim) {
        return static_cast<double>(plurality::epidemic::informed_count(sim));
    });
    for (int i = 0; i < 10; ++i) {
        s.run_for(64);  // exactly one parallel-time unit
        rec.maybe_sample(s);
    }
    EXPECT_GE(rec.samples(), 9u);
    EXPECT_LE(rec.samples(), 10u);
}

TEST(Recorder, RespectsCadenceGap) {
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(100.0);
    rec.add_series("informed", [](const sim_t&) { return 0.0; });
    for (int i = 0; i < 20; ++i) {
        s.run_for(64);
        rec.maybe_sample(s);
    }
    // 20 time units with cadence 100: only the first sample is taken.
    EXPECT_EQ(rec.samples(), 1u);
}

TEST(Recorder, FirstSampleAlwaysTakenAtTimeZero) {
    // Cadence far above the check interval: the time-0 grid point is still
    // due on the very first call, so a caller checking at t = 0 (the
    // convergence layer's observer) records its first sample at exactly 0.
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(1000.0);
    rec.add_series("informed", [](const sim_t& sim) {
        return static_cast<double>(plurality::epidemic::informed_count(sim));
    });
    EXPECT_TRUE(rec.maybe_sample(s));  // before any interaction
    for (int i = 0; i < 10; ++i) {
        s.run_for(64);
        rec.maybe_sample(s);
    }
    ASSERT_EQ(rec.samples(), 1u);
    EXPECT_DOUBLE_EQ(rec.times().front(), 0.0);
    EXPECT_DOUBLE_EQ(rec.column(0).front(), 1.0);
}

TEST(Recorder, SamplesAlignToCadenceGridBoundary) {
    // Checks every 0.5 time units with cadence 2: samples land on the grid
    // points 0, 2, 4, ... — not on a drifting last-sample-plus-cadence
    // schedule.
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(2.0);
    rec.add_series("zero", [](const sim_t&) { return 0.0; });
    rec.maybe_sample(s);  // t = 0
    for (int i = 0; i < 16; ++i) {
        s.run_for(32);  // half a parallel-time unit
        rec.maybe_sample(s);
    }
    // 8 time units total: samples at 0, 2, 4, 6, 8.
    ASSERT_EQ(rec.samples(), 5u);
    for (std::size_t i = 0; i < rec.samples(); ++i) {
        EXPECT_DOUBLE_EQ(rec.times()[i], 2.0 * static_cast<double>(i));
    }
}

TEST(Recorder, LateFirstCallSamplesImmediately) {
    // If the caller only starts checking after the cadence has elapsed, the
    // overdue grid point fires on the first call and the schedule realigns
    // to the grid.
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(2.0);
    rec.add_series("zero", [](const sim_t&) { return 0.0; });
    s.run_for(3 * 64);  // t = 3: grid points 0 and 2 already passed
    EXPECT_TRUE(rec.maybe_sample(s));
    s.run_for(64);  // t = 4: next grid point
    EXPECT_TRUE(rec.maybe_sample(s));
    ASSERT_EQ(rec.samples(), 2u);
    EXPECT_DOUBLE_EQ(rec.times()[0], 3.0);
    EXPECT_DOUBLE_EQ(rec.times()[1], 4.0);
}

TEST(Recorder, SeriesValuesAreMonotoneForEpidemic) {
    auto s = make_sim(256);
    plurality::trace::recorder<sim_t> rec(1.0);
    rec.add_series("informed", [](const sim_t& sim) {
        return static_cast<double>(plurality::epidemic::informed_count(sim));
    });
    while (plurality::epidemic::informed_count(s) < 256) {
        s.run_for(64);
        rec.maybe_sample(s);
    }
    const auto& col = rec.column(0);
    for (std::size_t i = 1; i < col.size(); ++i) EXPECT_GE(col[i], col[i - 1]);
    EXPECT_GT(col.back(), col.front());
}

TEST(Recorder, CsvOutput) {
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(1.0);
    rec.add_series("a", [](const sim_t&) { return 1.5; });
    rec.add_series("b", [](const sim_t&) { return 2.5; });
    s.run_for(64);
    rec.maybe_sample(s);
    std::ostringstream oss;
    rec.write_csv(oss);
    const std::string csv = oss.str();
    EXPECT_NE(csv.find("parallel_time,a,b"), std::string::npos);
    EXPECT_NE(csv.find(",1.5,2.5"), std::string::npos);
}

TEST(Recorder, CsvCommentHeaderDocumentsUnitsBeforeTheHeaderRow) {
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(1.0);
    rec.add_series("a", [](const sim_t&) { return 1.0; });
    rec.maybe_sample(s);
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
    // maybe_sample at exactly t = cadence is "at the due point", not before
    // it: the sample fires and the next due point moves strictly ahead, so
    // an immediate re-check at the same time does not double-sample.
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(1.0);
    rec.add_series("t", [](const sim_t& sim) { return sim.parallel_time(); });
    EXPECT_TRUE(rec.maybe_sample(s));   // t = 0 anchor
    s.run_for(64);                      // exactly one parallel-time unit
    EXPECT_TRUE(rec.maybe_sample(s));   // t = 1.0, on the boundary
    EXPECT_FALSE(rec.maybe_sample(s));  // same instant: already taken
    ASSERT_EQ(rec.samples(), 2u);
    EXPECT_DOUBLE_EQ(rec.times()[1], 1.0);
}

TEST(Recorder, MultipleSeriesStayAligned) {
    auto s = make_sim(64);
    plurality::trace::recorder<sim_t> rec(0.5);
    rec.add_series("time_copy", [](const sim_t& sim) { return sim.parallel_time(); });
    rec.add_series("const", [](const sim_t&) { return 7.0; });
    for (int i = 0; i < 8; ++i) {
        s.run_for(40);
        rec.maybe_sample(s);
    }
    ASSERT_EQ(rec.column(0).size(), rec.times().size());
    ASSERT_EQ(rec.column(1).size(), rec.times().size());
    for (std::size_t i = 0; i < rec.times().size(); ++i) {
        EXPECT_DOUBLE_EQ(rec.column(0)[i], rec.times()[i]);
        EXPECT_DOUBLE_EQ(rec.column(1)[i], 7.0);
    }
}

}  // namespace
