// Calibrated statistical tests for the portable samplers (sim/random_dist.h).
//
// Thresholds are derived from each statistic's own sampling distribution —
// mean checks use a ~5σ band (plus a small absolute slack) computed from the
// known variance and the draw count, χ² checks use df + 5·√(2·df) + slack —
// NOT from hunting for lucky seeds: re-rolling the RNG streams stays inside
// the bands with overwhelming probability.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/random_dist.h"
#include "sim/rng.h"

namespace {

using plurality::sim::rng;
namespace dist = plurality::sim::dist;

/// 5σ band for a sample mean of `draws` iid variates with variance `var`.
double mean_band(double var, std::size_t draws) {
    return 5.0 * std::sqrt(var / static_cast<double>(draws));
}

/// Generous χ² acceptance threshold for `df` degrees of freedom.
double chi_square_threshold(double df) { return df + 5.0 * std::sqrt(2.0 * df) + 10.0; }

double chi_square(const std::vector<double>& observed, const std::vector<double>& expected) {
    double chi = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double diff = observed[i] - expected[i];
        chi += diff * diff / expected[i];
    }
    return chi;
}

TEST(RandomDist, LogFactorialMatchesDirectSummationAcrossTableBoundary) {
    double direct = 0.0;
    for (std::uint64_t n = 1; n <= 5000; ++n) {
        direct += std::log(static_cast<double>(n));
        if (n % 500 == 0 || n == 4095 || n == 4096 || n == 4097) {
            EXPECT_NEAR(dist::log_factorial(n), direct, 1e-9 * direct) << "n=" << n;
        }
    }
    EXPECT_DOUBLE_EQ(dist::log_factorial(0), 0.0);
    EXPECT_DOUBLE_EQ(dist::log_factorial(1), 0.0);
    // The largest population the census backend accepts.
    const double at_max = std::lgamma(4294967296.0);
    EXPECT_NEAR(dist::log_factorial(4294967295ull), at_max, 1e-12 * at_max);
}

TEST(RandomDist, BinomialSmallChiSquareAgainstPmf) {
    constexpr std::uint64_t n = 12;
    constexpr double p = 0.3;
    constexpr std::size_t draws = 20000;
    rng gen(303);
    std::vector<double> observed(n + 1, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t v = dist::binomial(gen, n, p);
        ASSERT_LE(v, n);
        observed[v] += 1.0;
    }
    std::vector<double> expected(n + 1, 0.0);
    double pmf = std::pow(1.0 - p, static_cast<double>(n));  // pmf(0)
    for (std::uint64_t k = 0; k <= n; ++k) {
        expected[k] = pmf * draws;
        pmf *= (static_cast<double>(n - k) / static_cast<double>(k + 1)) * (p / (1.0 - p));
    }
    EXPECT_LT(chi_square(observed, expected), chi_square_threshold(static_cast<double>(n)));
}

TEST(RandomDist, BinomialLargeParametersMeanAndVariance) {
    constexpr std::uint64_t n = 100000;
    constexpr double p = 0.37;
    constexpr std::size_t draws = 2000;
    rng gen(404);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < draws; ++i) {
        const double v = static_cast<double>(dist::binomial(gen, n, p));
        sum += v;
        sum_sq += v * v;
    }
    const double mean = sum / draws;
    const double expected_mean = n * p;
    const double expected_var = n * p * (1.0 - p);
    EXPECT_NEAR(mean, expected_mean, mean_band(expected_var, draws) + 3.0);
    const double var = sum_sq / draws - mean * mean;
    EXPECT_NEAR(var, expected_var, 0.20 * expected_var);
}

TEST(RandomDist, BinomialEdgeCases) {
    rng gen(1);
    EXPECT_EQ(dist::binomial(gen, 0, 0.5), 0u);
    EXPECT_EQ(dist::binomial(gen, 100, 0.0), 0u);
    EXPECT_EQ(dist::binomial(gen, 100, 1.0), 100u);
}

TEST(RandomDist, HypergeometricSmallChiSquareAgainstPmf) {
    constexpr std::uint64_t total = 60;
    constexpr std::uint64_t successes = 25;
    constexpr std::uint64_t n = 20;
    constexpr std::size_t draws = 20000;
    rng gen(505);
    std::vector<double> observed(n + 1, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t v = dist::hypergeometric(gen, total, successes, n);
        ASSERT_LE(v, n);
        ASSERT_LE(v, successes);
        observed[v] += 1.0;
    }
    // pmf by ratio recurrence from k = 0, normalized by its own sum.
    std::vector<double> pmf(n + 1, 0.0);
    pmf[0] = 1.0;
    double norm = 1.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        const double kd = static_cast<double>(k);
        pmf[k + 1] = pmf[k] * (successes - kd) * (n - kd) /
                     ((kd + 1.0) * (total - successes - n + kd + 1.0));
        norm += pmf[k + 1];
    }
    std::vector<double> expected(n + 1, 0.0);
    for (std::uint64_t k = 0; k <= n; ++k) expected[k] = pmf[k] / norm * draws;
    EXPECT_LT(chi_square(observed, expected), chi_square_threshold(static_cast<double>(n)));
}

TEST(RandomDist, HypergeometricWideChiSquareAgainstPmf) {
    // Parameters with sd ≈ 33 land in the HRUA rejection branch (variance
    // 625+); the χ² compares bucketed draws against the exact pmf computed
    // by ratio recurrence across the whole support.
    constexpr std::uint64_t total = 40000;
    constexpr std::uint64_t successes = 20000;
    constexpr std::uint64_t n = 5000;
    constexpr std::size_t draws = 20000;
    rng gen(555);
    // Exact pmf over the support by recurrence from k = 0, self-normalized.
    std::vector<double> pmf(n + 1, 0.0);
    pmf[0] = 1.0;
    double norm = 1.0;
    for (std::uint64_t k = 0; k < n; ++k) {
        const double kd = static_cast<double>(k);
        pmf[k + 1] = pmf[k] * (successes - kd) * (n - kd) /
                     ((kd + 1.0) * (total - successes - n + kd + 1.0));
        norm += pmf[k + 1];
        if (pmf[k + 1] > 1e280) {  // rescale to dodge overflow on the climb
            for (std::uint64_t j = 0; j <= k + 1; ++j) pmf[j] /= 1e280;
            norm /= 1e280;
        }
    }
    // Buckets of width 12 covering mean ± ~5σ, tails pooled at both ends.
    constexpr std::uint64_t mean = 2500;
    constexpr std::uint64_t half_span = 168;  // ~5σ, multiple of the width
    constexpr std::uint64_t width = 12;
    constexpr std::size_t buckets = 2 * half_span / width + 2;
    const auto bucket_of = [&](std::uint64_t v) -> std::size_t {
        if (v < mean - half_span) return 0;
        if (v >= mean + half_span) return buckets - 1;
        return 1 + static_cast<std::size_t>((v - (mean - half_span)) / width);
    };
    std::vector<double> observed(buckets, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t v = dist::hypergeometric(gen, total, successes, n);
        ASSERT_LE(v, n);
        observed[bucket_of(v)] += 1.0;
    }
    std::vector<double> expected(buckets, 0.0);
    for (std::uint64_t k = 0; k <= n; ++k) expected[bucket_of(k)] += pmf[k] / norm * draws;
    EXPECT_LT(chi_square(observed, expected),
              chi_square_threshold(static_cast<double>(buckets - 1)));
}

TEST(RandomDist, HypergeometricWideReflectedParametersMeanAndVariance) {
    // Pins the HRUA reflection corrections, which the symmetric χ² above
    // cannot reach: successes > total − successes exercises the
    // smaller-group reflection, draws > total/2 the complement-sample
    // reflection, and the last case both at once.
    struct wide_case {
        std::uint64_t total, successes, draws;
    };
    const wide_case cases[] = {
        {1'000'000, 900'000, 40'000},   // successes > bad
        {1'000'000, 300'000, 700'000},  // draws > total/2
        {1'000'000, 800'000, 650'000},  // both reflections
    };
    rng gen(556);
    for (const auto& c : cases) {
        constexpr std::size_t draws_count = 2000;
        double sum = 0.0;
        double sum_sq = 0.0;
        for (std::size_t i = 0; i < draws_count; ++i) {
            const double v =
                static_cast<double>(dist::hypergeometric(gen, c.total, c.successes, c.draws));
            sum += v;
            sum_sq += v * v;
        }
        const double nd = static_cast<double>(c.draws);
        const double ratio = static_cast<double>(c.successes) / static_cast<double>(c.total);
        const double fpc = static_cast<double>(c.total - c.draws) /
                           static_cast<double>(c.total - 1);
        const double expected_mean = nd * ratio;
        const double expected_var = nd * ratio * (1.0 - ratio) * fpc;
        const double mean = sum / draws_count;
        EXPECT_NEAR(mean, expected_mean, mean_band(expected_var, draws_count) + 3.0)
            << "K=" << c.successes << " L=" << c.draws;
        const double var = sum_sq / draws_count - mean * mean;
        EXPECT_NEAR(var, expected_var, 0.20 * expected_var)
            << "K=" << c.successes << " L=" << c.draws;
    }
}

TEST(RandomDist, HypergeometricCensusScaleMeanAndVariance) {
    // The leap census backend's regime: a billion-agent urn, tens of
    // thousands of draws.
    constexpr std::uint64_t total = 1'000'000'000;
    constexpr std::uint64_t successes = 400'000'000;
    constexpr std::uint64_t n = 50'000;
    constexpr std::size_t draws = 2000;
    rng gen(606);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < draws; ++i) {
        const double v = static_cast<double>(dist::hypergeometric(gen, total, successes, n));
        sum += v;
        sum_sq += v * v;
    }
    const double ratio = static_cast<double>(successes) / static_cast<double>(total);
    const double fpc = static_cast<double>(total - n) / static_cast<double>(total - 1);
    const double expected_mean = n * ratio;                       // 20000
    const double expected_var = n * ratio * (1.0 - ratio) * fpc;  // ~12000
    const double mean = sum / draws;
    EXPECT_NEAR(mean, expected_mean, mean_band(expected_var, draws) + 3.0);
    const double var = sum_sq / draws - mean * mean;
    EXPECT_NEAR(var, expected_var, 0.20 * expected_var);
}

TEST(RandomDist, HypergeometricEdgeCases) {
    rng gen(2);
    EXPECT_EQ(dist::hypergeometric(gen, 100, 0, 50), 0u);     // no successes
    EXPECT_EQ(dist::hypergeometric(gen, 100, 100, 37), 37u);  // all successes
    EXPECT_EQ(dist::hypergeometric(gen, 100, 42, 100), 42u);  // exhaustive draw
    EXPECT_EQ(dist::hypergeometric(gen, 100, 42, 0), 0u);     // no draw
}

TEST(RandomDist, MultivariateHypergeometricConservesAndMatchesMarginal) {
    const std::vector<std::uint64_t> counts = {300, 500, 200};
    constexpr std::uint64_t n = 100;
    constexpr std::size_t reps = 5000;
    rng gen(707);
    std::vector<std::uint64_t> out(counts.size());
    double middle_sum = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
        dist::multivariate_hypergeometric(gen, counts, n, out);
        std::uint64_t sum = 0;
        for (std::size_t j = 0; j < out.size(); ++j) {
            ASSERT_LE(out[j], counts[j]);
            sum += out[j];
        }
        ASSERT_EQ(sum, n);
        middle_sum += static_cast<double>(out[1]);
    }
    // Marginal of category 1 is Hypergeometric(1000, 500, 100).
    const double expected_mean = 50.0;
    const double expected_var = 100.0 * 0.5 * 0.5 * (900.0 / 999.0);
    EXPECT_NEAR(middle_sum / reps, expected_mean, mean_band(expected_var, reps) + 0.1);
}

TEST(RandomDist, MultivariateHypergeometricExhaustiveDrawReturnsCounts) {
    const std::vector<std::uint64_t> counts = {5, 0, 7, 11, 3};
    rng gen(808);
    std::vector<std::uint64_t> out(counts.size());
    dist::multivariate_hypergeometric(gen, counts, 26, out);
    EXPECT_EQ(out, counts);
}

TEST(RandomDist, MultinomialConservesAndMatchesMarginalMoments) {
    const std::vector<double> weights = {3.0, 5.0, 2.0};
    constexpr std::uint64_t n = 200;
    constexpr std::size_t reps = 5000;
    rng gen(1212);
    std::vector<std::uint64_t> out(weights.size());
    double middle_sum = 0.0;
    double middle_sq = 0.0;
    for (std::size_t i = 0; i < reps; ++i) {
        dist::multinomial(gen, weights, n, out);
        std::uint64_t sum = 0;
        for (const std::uint64_t v : out) sum += v;
        ASSERT_EQ(sum, n);
        const double v = static_cast<double>(out[1]);
        middle_sum += v;
        middle_sq += v * v;
    }
    // Marginal of category 1 is Binomial(200, 0.5).
    constexpr double expected_mean = 100.0;
    constexpr double expected_var = 200.0 * 0.5 * 0.5;
    const double mean = middle_sum / reps;
    EXPECT_NEAR(mean, expected_mean, mean_band(expected_var, reps) + 0.1);
    const double var = middle_sq / reps - mean * mean;
    EXPECT_NEAR(var, expected_var, 0.20 * expected_var);
}

TEST(RandomDist, MultinomialSmallChiSquareAgainstMarginalPmf) {
    // χ² on the first category of a 3-way split: marginal is Binomial(n, 0.2).
    const std::vector<double> weights = {1.0, 3.0, 1.0};
    constexpr std::uint64_t n = 15;
    constexpr double p = 0.2;
    constexpr std::size_t draws = 20000;
    rng gen(1313);
    std::vector<std::uint64_t> out(weights.size());
    std::vector<double> observed(n + 1, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        dist::multinomial(gen, weights, n, out);
        ASSERT_LE(out[0], n);
        observed[out[0]] += 1.0;
    }
    std::vector<double> expected(n + 1, 0.0);
    double pmf = std::pow(1.0 - p, static_cast<double>(n));  // pmf(0)
    for (std::uint64_t k = 0; k <= n; ++k) {
        expected[k] = pmf * draws;
        pmf *= (static_cast<double>(n - k) / static_cast<double>(k + 1)) * (p / (1.0 - p));
    }
    EXPECT_LT(chi_square(observed, expected), chi_square_threshold(static_cast<double>(n)));
}

TEST(RandomDist, MultinomialZeroWeightCategoriesConsumeNoProbability) {
    const std::vector<double> weights = {0.0, 2.0, 0.0, 3.0, 0.0};
    constexpr std::size_t reps = 500;
    rng gen(1414);
    std::vector<std::uint64_t> out(weights.size());
    for (std::size_t i = 0; i < reps; ++i) {
        dist::multinomial(gen, weights, 40, out);
        EXPECT_EQ(out[0], 0u);
        EXPECT_EQ(out[2], 0u);
        EXPECT_EQ(out[4], 0u);
        EXPECT_EQ(out[1] + out[3], 40u);
    }
}

TEST(RandomDist, MultinomialDegenerateDrawsConsumeNoRandomness) {
    // Zero draws and single-positive-weight splits are forced outcomes; the
    // sampler must not touch the stream, so two generators stay in lockstep.
    const std::vector<double> one_hot = {0.0, 7.0, 0.0};
    rng a(1515);
    rng b(1515);
    std::vector<std::uint64_t> out(3);
    dist::multinomial(a, one_hot, 0, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 0, 0}));
    dist::multinomial(a, one_hot, 123, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 123, 0}));
    EXPECT_EQ(a.next_unit(), b.next_unit());
}

TEST(RandomDist, LogCollisionFreeSurvivalMatchesDirectSum) {
    // Reference: log S(l) = Σ_{t<l} [log1p(−2t/n) + log1p(−(2t+1)/n)], summed
    // in order — exact to ~1e-11 relative at these lengths.  Covers the
    // table-exact branch (n < 4096) and the closed-form Stirling branch, up
    // to the largest population the census backend accepts.
    const std::uint64_t populations[] = {100, 4096, 1'000'000, 1'000'000'000, 4'294'967'295};
    for (const std::uint64_t n : populations) {
        const double nd = static_cast<double>(n);
        // Walk out to ~6 "sigma" of the run-length law (L ~ √(πn/8)).
        const std::uint64_t max_l =
            std::min<std::uint64_t>(n / 2, static_cast<std::uint64_t>(6.0 * std::sqrt(nd)) + 2);
        // S(1) = 1; S(l) = S(l−1)·(n−2t)(n−2t−1)/(n(n−1)) with t = l−1, i.e.
        // log-increment log1p(−2t/n) + log1p(−2t/(n−1)).
        double direct = 0.0;
        for (std::uint64_t l = 1; l <= max_l; ++l) {
            if (l > 1) {
                const double t = static_cast<double>(l - 1);
                direct += std::log1p(-2.0 * t / nd) + std::log1p(-2.0 * t / (nd - 1.0));
            }
            if (l % 7 != 0 && l != max_l && l > 3) continue;
            const double closed = dist::log_collision_free_survival(n, l);
            ASSERT_NEAR(closed, direct, 1e-9 * std::max(1.0, std::abs(direct)))
                << "n=" << n << " l=" << l;
        }
    }
    EXPECT_DOUBLE_EQ(dist::log_collision_free_survival(1000, 0), 0.0);
    EXPECT_DOUBLE_EQ(dist::log_collision_free_survival(1000, 1), 0.0);
    EXPECT_EQ(dist::log_collision_free_survival(1000, 501),
              -std::numeric_limits<double>::infinity());
}

TEST(RandomDist, LeapCollisionRunMatchesAnalyticMoments) {
    // E[L] and E[L²] follow directly from the survival function
    // S(l) = P(L >= l): E[L] = Σ_{l>=1} S(l), E[L²] = Σ (2l−1)·S(l), summed
    // term by term (~3·10⁵ terms at the largest population the census-space
    // backends accept).  The closed-form inversion must reproduce them.
    for (const std::uint64_t n : {10'000ull, 4'294'967'295ull}) {
        const double inv_pairs = 1.0 / (static_cast<double>(n) * (static_cast<double>(n) - 1.0));
        double survival = 1.0;
        double expected_mean = 0.0;
        double expected_sq = 0.0;
        for (std::uint64_t l = 1; survival > 1e-15 && 2 * l <= n; ++l) {
            const double used = 2.0 * static_cast<double>(l - 1);
            const double fresh = static_cast<double>(n) - used;
            survival *= fresh * (fresh - 1.0) * inv_pairs;  // S(l)
            expected_mean += survival;
            expected_sq += (2.0 * static_cast<double>(l) - 1.0) * survival;
        }
        const double expected_var = expected_sq - expected_mean * expected_mean;

        constexpr std::size_t reps = 4000;
        rng gen(1616);
        double sum = 0.0;
        for (std::size_t i = 0; i < reps; ++i) {
            const auto run = dist::sample_collision_free_run_leap(gen, n, 1u << 30);
            ASSERT_GE(run.length, 1u);
            ASSERT_TRUE(run.collided);  // cap is far beyond any feasible run
            sum += static_cast<double>(run.length);
        }
        EXPECT_NEAR(sum / reps, expected_mean, mean_band(expected_var, reps) + 0.5) << "n=" << n;
    }
}

TEST(RandomDist, LeapCollisionRunChiSquareAgainstExactPmf) {
    // Bucketed χ² check: the closed-form inversion's frequencies must match
    // the exact run-length pmf p(l) = S(l) − S(l+1), with S the survival
    // product walked term by term, bucket by bucket.
    constexpr std::uint64_t n = 2000;
    constexpr std::size_t draws = 20000;
    constexpr std::uint64_t bucket_width = 12;
    constexpr std::size_t buckets = 14;  // [1,13), [13,25), ..., plus the tail
    rng gen(1717);
    std::vector<double> observed(buckets, 0.0);
    for (std::size_t i = 0; i < draws; ++i) {
        const auto run = dist::sample_collision_free_run_leap(gen, n, 1u << 30);
        const std::uint64_t b = (run.length - 1) / bucket_width;
        observed[b < buckets - 1 ? b : buckets - 1] += 1.0;
    }
    const double inv_pairs = 1.0 / (static_cast<double>(n) * (n - 1.0));
    std::vector<double> expected(buckets, 0.0);
    double survival = 1.0;  // S(1)
    for (std::uint64_t l = 1; 2 * l <= n && survival > 1e-15; ++l) {
        const double used = 2.0 * static_cast<double>(l);
        const double fresh = static_cast<double>(n) - used;
        const double next = survival * fresh * (fresh - 1.0) * inv_pairs;  // S(l+1)
        const std::uint64_t b = (l - 1) / bucket_width;
        expected[b < buckets - 1 ? b : buckets - 1] += (survival - next) * draws;
        survival = next;
    }
    expected[buckets - 1] += survival * draws;  // residual tail mass
    EXPECT_LT(chi_square(observed, expected), chi_square_threshold(buckets - 1));
}

TEST(RandomDist, LeapCollisionRunHonorsTheCap) {
    rng gen(1818);
    for (int i = 0; i < 200; ++i) {
        const auto run = dist::sample_collision_free_run_leap(gen, 10000, 5);
        ASSERT_GE(run.length, 1u);
        ASSERT_LE(run.length, 5u);
        EXPECT_EQ(run.collided, run.length < 5);
    }
    // cap 1 always returns exactly one collision-free interaction.
    const auto one = dist::sample_collision_free_run_leap(gen, 100, 1);
    EXPECT_EQ(one.length, 1u);
    EXPECT_FALSE(one.collided);
}

TEST(RandomDist, LeapCollisionRunTinyPopulations) {
    rng gen(1919);
    for (int i = 0; i < 100; ++i) {
        // n = 2: every interaction reuses both agents, so runs have length 1
        // and always end in a collision when the cap allows more.
        const auto two = dist::sample_collision_free_run_leap(gen, 2, 10);
        EXPECT_EQ(two.length, 1u);
        EXPECT_TRUE(two.collided);
        // n = 3: two distinct agents are used after one interaction and only
        // one fresh agent remains — a second collision-free pair is
        // impossible.
        const auto three = dist::sample_collision_free_run_leap(gen, 3, 10);
        EXPECT_EQ(three.length, 1u);
        EXPECT_TRUE(three.collided);
    }
}

}  // namespace
