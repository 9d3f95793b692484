// Unit tests for the analysis toolkit: stats and scaling fits.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/scaling_fit.h"
#include "analysis/stats.h"

namespace {

using namespace plurality::analysis;

TEST(Stats, SummaryOfKnownSample) {
    const std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
    const auto s = summarize(values);
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryOfEmptySample) {
    const auto s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummaryOfSingleton) {
    const std::vector<double> values{7.5};
    const auto s = summarize(values);
    EXPECT_DOUBLE_EQ(s.mean, 7.5);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.median, 7.5);
}

TEST(Stats, PercentileInterpolates) {
    const std::vector<double> values{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(values, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(values, 0.5), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
    const std::vector<double> values{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(values, 1.0), 40.0);
}

TEST(Stats, WilsonIntervalContainsEstimate) {
    const auto iv = wilson_interval(80, 100);
    EXPECT_DOUBLE_EQ(iv.estimate, 0.8);
    EXPECT_LT(iv.low, 0.8);
    EXPECT_GT(iv.high, 0.8);
    EXPECT_GE(iv.low, 0.0);
    EXPECT_LE(iv.high, 1.0);
}

TEST(Stats, WilsonIntervalDegenerate) {
    const auto zero = wilson_interval(0, 0);
    EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
    const auto all = wilson_interval(50, 50);
    EXPECT_DOUBLE_EQ(all.estimate, 1.0);
    EXPECT_LT(all.low, 1.0);
}

TEST(Stats, ChiSquareUniformIsZeroForPerfectCounts) {
    const std::vector<std::uint64_t> counts{100, 100, 100, 100};
    EXPECT_DOUBLE_EQ(chi_square_uniform(counts), 0.0);
}

TEST(Stats, ChiSquareDetectsSkew) {
    const std::vector<std::uint64_t> uniform{100, 100, 100, 100};
    const std::vector<std::uint64_t> skewed{400, 0, 0, 0};
    EXPECT_GT(chi_square_uniform(skewed), chi_square_uniform(uniform) + 100.0);
}

TEST(Stats, AccumulatorMatchesBatch) {
    accumulator acc;
    for (double v : {1.0, 2.0, 3.0}) acc.add(v);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.summary().mean, 2.0);
}

TEST(ScalingFit, ExactLine) {
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{3, 5, 7, 9};  // y = 2x + 1
    const auto fit = fit_line(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(ScalingFit, PowerLawRecoversExponent) {
    std::vector<double> x;
    std::vector<double> y;
    for (double v = 1.0; v <= 64.0; v *= 2.0) {
        x.push_back(v);
        y.push_back(5.0 * v * v);  // y = 5 x^2
    }
    const auto fit = fit_power_law(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 5.0, 1e-6);
}

TEST(ScalingFit, LogarithmicRecoversSlope) {
    std::vector<double> x;
    std::vector<double> y;
    for (double v = 2.0; v <= 4096.0; v *= 2.0) {
        x.push_back(v);
        y.push_back(7.0 * std::log2(v) + 3.0);
    }
    const auto fit = fit_logarithmic(x, y);
    EXPECT_NEAR(fit.slope, 7.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
}

TEST(ScalingFit, DegenerateInputs) {
    const auto fit = fit_line(std::vector<double>{1.0}, std::vector<double>{2.0});
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    const auto flat = fit_line(std::vector<double>{1, 1, 1}, std::vector<double>{2, 3, 4});
    EXPECT_DOUBLE_EQ(flat.slope, 0.0);
}

}  // namespace
