#include "sim/random_dist.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace plurality::sim::dist {

namespace {

/// ln(n!) for n < table size, accumulated once at first use.  The summation
/// order is fixed, so the table is bit-identical on every run.
constexpr std::size_t log_factorial_table_size = 4096;

const std::array<double, log_factorial_table_size>& log_factorial_table() noexcept {
    static const auto table = [] {
        std::array<double, log_factorial_table_size> t{};
        t[0] = 0.0;
        for (std::size_t n = 1; n < t.size(); ++n) {
            t[n] = t[n - 1] + std::log(static_cast<double>(n));
        }
        return t;
    }();
    return table;
}

/// ln C(n, k); requires k <= n.
double log_choose(std::uint64_t n, std::uint64_t k) noexcept {
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

/// The convergent tail of Stirling's series: ln x! - [x ln x - x + ½ln(2πx)].
/// For x >= 64 the three-term truncation error is below 1e-16 absolute.
double stirling_tail(double x) noexcept {
    const double inv = 1.0 / x;
    const double inv2 = inv * inv;
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0)));
}

}  // namespace

double log_factorial(std::uint64_t n) noexcept {
    if (n < log_factorial_table_size) return log_factorial_table()[n];
    // Stirling's series; for n >= 4096 the truncation error is far below one
    // ulp of the result.  Folding ½·ln(2πx) into (x+½)·ln x keeps this at a
    // single log evaluation — it is the inner loop of every wide
    // hypergeometric draw.
    constexpr double half_log_two_pi = 0.918938533204672741780329736406;
    const double x = static_cast<double>(n);
    return (x + 0.5) * std::log(x) - x + half_log_two_pi + stirling_tail(x);
}

namespace {

/// Shared exact-inversion core for unimodal integer pmfs on [lo, hi]: one
/// uniform is inverted through the CDF enumerated outward from the mode
/// (mode, mode-1, mode+1, mode-2, ...), with neighbouring pmf values derived
/// by the distribution's ratio recurrences.  `RatioDown(k)` must return
/// pmf(k-1)/pmf(k), `RatioUp(k)` pmf(k+1)/pmf(k).
template <class RatioDown, class RatioUp>
std::uint64_t invert_from_mode(rng& gen, std::uint64_t lo, std::uint64_t hi, std::uint64_t mode,
                               double pmf_mode, RatioDown ratio_down,
                               RatioUp ratio_up) noexcept {
    const double u = gen.next_unit();
    double acc = pmf_mode;
    if (u < acc) return mode;
    std::uint64_t left = mode;
    std::uint64_t right = mode;
    double left_pmf = pmf_mode;
    double right_pmf = pmf_mode;
    while (true) {
        bool advanced = false;
        if (left > lo) {
            left_pmf *= ratio_down(left);
            --left;
            acc += left_pmf;
            advanced = true;
            if (u < acc) return left;
        }
        if (right < hi) {
            right_pmf *= ratio_up(right);
            ++right;
            acc += right_pmf;
            advanced = true;
            if (u < acc) return right;
        }
        // Support exhausted with a floating-point residue (Σ pmf rounded a
        // hair below u): any in-support value carries the leftover mass;
        // return the last enumerated one.
        if (!advanced) return right;
    }
}

}  // namespace

std::uint64_t binomial(rng& gen, std::uint64_t n, double p) noexcept {
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    const double nd = static_cast<double>(n);
    const double odds = p / (1.0 - p);
    const double mode_d = std::floor((nd + 1.0) * p);
    const auto mode = static_cast<std::uint64_t>(std::min(mode_d, nd));
    const double md = static_cast<double>(mode);
    const double log_pmf = log_choose(n, mode) + md * std::log(p) + (nd - md) * std::log1p(-p);
    return invert_from_mode(
        gen, 0, n, mode, std::exp(log_pmf),
        [nd, odds](std::uint64_t k) {  // pmf(k-1)/pmf(k)
            const double kd = static_cast<double>(k);
            return kd / ((nd - kd + 1.0) * odds);
        },
        [nd, odds](std::uint64_t k) {  // pmf(k+1)/pmf(k)
            const double kd = static_cast<double>(k);
            return (nd - kd) * odds / (kd + 1.0);
        });
}

namespace {

/// Stadlober's HRUA* ratio-of-uniforms rejection sampler for the
/// hypergeometric bulk: exact, and O(1) uniforms per draw independent of the
/// distribution's spread, where mode-centred enumeration walks O(sd) pmf
/// steps.  Constants: d1 = 2·√(2/e), d2 = 3 − 2·√(3/e).  The two trailing
/// reflections (Frohne) map the internally-normalized draw — smaller group,
/// smaller sample side — back to the caller's parameterization.
std::uint64_t hypergeometric_hrua(rng& gen, std::uint64_t total, std::uint64_t successes,
                                  std::uint64_t draws) noexcept {
    constexpr double d1 = 1.7155277699214135;
    constexpr double d2 = 0.8989161620588988;
    const std::uint64_t bad = total - successes;
    const std::uint64_t mingoodbad = std::min(successes, bad);
    const std::uint64_t maxgoodbad = std::max(successes, bad);
    const std::uint64_t m = std::min(draws, total - draws);
    const double popsize = static_cast<double>(total);
    const double md = static_cast<double>(m);
    const double d4 = static_cast<double>(mingoodbad) / popsize;
    const double d5 = 1.0 - d4;
    const double d6 = md * d4 + 0.5;
    const double d7 = std::sqrt((popsize - md) * md * d4 * d5 / (popsize - 1.0) + 0.5);
    const double d8 = d1 * d7 + d2;
    const auto d9 = static_cast<std::uint64_t>(std::floor(
        (md + 1.0) * (static_cast<double>(mingoodbad) + 1.0) / (popsize + 2.0)));
    const double d10 = log_factorial(d9) + log_factorial(mingoodbad - d9) +
                       log_factorial(m - d9) + log_factorial(maxgoodbad - m + d9);
    // 16·d7: wide enough for the 16-digit precision of d1/d2.
    const double d11 =
        std::min(std::min(md, static_cast<double>(mingoodbad)) + 1.0, std::floor(d6 + 16.0 * d7));
    std::uint64_t z = 0;
    while (true) {
        const double x = gen.next_unit();
        const double y = gen.next_unit();
        const double w = d6 + d8 * (y - 0.5) / x;
        // The negated form also rejects the x == 0 NaN/inf cases safely.
        if (!(w >= 0.0 && w < d11)) continue;
        z = static_cast<std::uint64_t>(w);
        const double t = d10 - (log_factorial(z) + log_factorial(mingoodbad - z) +
                                log_factorial(m - z) + log_factorial(maxgoodbad - m + z));
        if (x * (4.0 - x) - 3.0 <= t) break;  // squeeze acceptance
        if (x * (x - t) >= 1.0) continue;     // squeeze rejection
        if (2.0 * std::log(x) <= t) break;    // exact acceptance
    }
    if (successes > bad) z = m - z;      // z counted the smaller (bad) group
    if (m < draws) z = successes - z;    // z counted the complement sample
    return z;
}

}  // namespace

std::uint64_t hypergeometric(rng& gen, std::uint64_t total, std::uint64_t successes,
                             std::uint64_t draws) noexcept {
    const std::uint64_t lo = draws + successes > total ? draws + successes - total : 0;
    const std::uint64_t hi = std::min(draws, successes);
    if (lo >= hi) return lo;
    const double big_n = static_cast<double>(total);
    const double big_k = static_cast<double>(successes);
    const double nd = static_cast<double>(draws);
    // Wide distributions go to the O(1) rejection sampler; the threshold is
    // where its flat ~9-log-factorial cost undercuts the expected O(sd)
    // enumeration walk below.
    const double ratio = big_k / big_n;
    const double variance = nd * ratio * (1.0 - ratio) * (big_n - nd) / (big_n - 1.0);
    if (variance > 625.0) {  // sd > 25
        return std::clamp(hypergeometric_hrua(gen, total, successes, draws), lo, hi);
    }
    // Mode in doubles (the exact product overflows uint64 at census scales);
    // an off-by-one mode only shifts where the enumeration starts.
    const double mode_d = std::floor((nd + 1.0) * (big_k + 1.0) / (big_n + 2.0));
    const auto mode = std::clamp(static_cast<std::uint64_t>(std::max(mode_d, 0.0)), lo, hi);
    // pmf at the mode.  When the mode sits on a support boundary — the
    // table path's dominant regime, where one state holds nearly the whole
    // population — the C(K, k) or C(N−K, L−k) factor degenerates and the
    // general nine-log-factorial form collapses to four terms; that setup is
    // most of the cost of a narrow draw, so the boundary cases are special-
    // cased rather than folded into log_choose.
    double log_pmf;
    if (mode == 0) {  // implies lo == 0, so total - successes >= draws
        log_pmf = log_factorial(total - successes) - log_factorial(total - successes - draws) -
                  log_factorial(total) + log_factorial(total - draws);
    } else if (mode == hi && hi == draws) {  // successes >= draws
        log_pmf = log_factorial(successes) - log_factorial(successes - draws) -
                  log_factorial(total) + log_factorial(total - draws);
    } else if (mode == hi) {  // hi == successes < draws
        log_pmf = log_factorial(total - successes) - log_factorial(draws - successes) +
                  log_factorial(draws) - log_factorial(total);
    } else {
        log_pmf = log_choose(successes, mode) + log_choose(total - successes, draws - mode) -
                  log_choose(total, draws);
    }
    return invert_from_mode(
        gen, lo, hi, mode, std::exp(log_pmf),
        [big_n, big_k, nd](std::uint64_t k) {  // pmf(k-1)/pmf(k)
            const double kd = static_cast<double>(k);
            return kd * (big_n - big_k - nd + kd) / ((big_k - kd + 1.0) * (nd - kd + 1.0));
        },
        [big_n, big_k, nd](std::uint64_t k) {  // pmf(k+1)/pmf(k)
            const double kd = static_cast<double>(k);
            return (big_k - kd) * (nd - kd) / ((kd + 1.0) * (big_n - big_k - nd + kd + 1.0));
        });
}

void multivariate_hypergeometric(rng& gen, std::span<const std::uint64_t> counts,
                                 std::uint64_t draws, std::span<std::uint64_t> out) noexcept {
    std::uint64_t remaining_total = 0;
    for (const std::uint64_t count : counts) remaining_total += count;
    std::uint64_t remaining_draws = draws;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (remaining_draws == 0) {
            out[i] = 0;
            continue;
        }
        const std::uint64_t taken =
            hypergeometric(gen, remaining_total, counts[i], remaining_draws);
        out[i] = taken;
        remaining_draws -= taken;
        remaining_total -= counts[i];
    }
}

void multinomial(rng& gen, std::span<const double> weights, std::uint64_t draws,
                 std::span<std::uint64_t> out) noexcept {
    double remaining_weight = 0.0;
    for (const double weight : weights) {
        if (weight > 0.0) remaining_weight += weight;
    }
    std::uint64_t remaining_draws = draws;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (remaining_draws == 0) {
            out[i] = 0;
            continue;
        }
        const double weight = weights[i] > 0.0 ? weights[i] : 0.0;
        if (weight <= 0.0) {
            out[i] = 0;
            continue;
        }
        if (weight >= remaining_weight) {
            // Last positive-weight category (exactly, or within fp rounding
            // of the running subtraction): the remaining draws are forced,
            // and forced draws consume no randomness.
            out[i] = remaining_draws;
            remaining_draws = 0;
            remaining_weight = 0.0;
            continue;
        }
        const std::uint64_t taken = binomial(gen, remaining_draws, weight / remaining_weight);
        out[i] = taken;
        remaining_draws -= taken;
        remaining_weight -= weight;
    }
}

double log_collision_free_survival(std::uint64_t population, std::uint64_t length) noexcept {
    if (length <= 1) return 0.0;
    if (2 * length > population) return -std::numeric_limits<double>::infinity();
    const std::uint64_t m = 2 * length;
    const double n = static_cast<double>(population);
    const double l = static_cast<double>(length);
    if (population < log_factorial_table_size) {
        // Tabulated log-factorials: the summed table values are <= ~3e4, so
        // the cancellation in the difference costs ~1e-11 absolute at worst.
        return log_factorial(population) - log_factorial(population - m) -
               l * std::log(n * (n - 1.0));
    }
    if (population - m < 64) {
        // Nearly-exhausted urn: ln S <= -2l²/n <= -(n/2 - O(1)) <= -2000 in
        // this branch, far below ln of the smallest invertible uniform
        // (~-36.7); the sentinel only needs to order below it.
        return -1.0e300;
    }
    // Cancellation-free rearrangement of ln n! - ln (n-2l)! - l·ln(n(n-1))
    // under Stirling (derivation: expand (n-m)ln(n-m) around ln n and let the
    // m·ln n terms cancel symbolically instead of in floating point).  Every
    // term is O(l²/n) or a product of big·small evaluated via log1p, so the
    // absolute error stays ~1e-11 even at n = 10⁹ where the naive difference
    // of ~1.9e10-sized logs would lose ten digits.
    const double md = static_cast<double>(m);
    return -l * std::log1p(-1.0 / n) - (n - md + 0.5) * std::log1p(-md / n) - md +
           stirling_tail(n) - stirling_tail(n - md);
}

collision_run sample_collision_free_run_leap(rng& gen, std::uint64_t population,
                                             std::uint64_t cap) noexcept {
    const double u = gen.next_unit();
    collision_run run;
    if (cap == 0 || population < 2) return run;  // precondition violated; report no progress
    run.length = 1;  // P(L >= 1) = 1: the first interaction is collision-free
    // 2l participants must be pairwise distinct, so l can never exceed n/2.
    const std::uint64_t feasible = population / 2;
    const std::uint64_t hi_cap = std::min(cap, feasible);
    if (hi_cap <= 1) {
        run.collided = run.length < cap;
        return run;
    }
    // Hoisted length-independent pieces of log_collision_free_survival: the
    // inversion below evaluates the curve a handful of times per sample, and
    // log1p(-1/n) / stirling_tail(n) / ln(n(n-1)) depend only on n.
    const double n = static_cast<double>(population);
    const bool tabulated = population < log_factorial_table_size;
    const double lf_n = tabulated ? log_factorial(population) : 0.0;
    const double log_pairs = tabulated ? std::log(n * (n - 1.0)) : 0.0;
    const double log1p_inv = tabulated ? 0.0 : std::log1p(-1.0 / n);
    const double tail_n = tabulated ? 0.0 : stirling_tail(n);
    const auto log_survival = [&](std::uint64_t length) noexcept {
        const std::uint64_t m = 2 * length;  // length <= hi_cap keeps m <= n
        const double l = static_cast<double>(length);
        if (tabulated) return lf_n - log_factorial(population - m) - l * log_pairs;
        if (population - m < 64) return -1.0e300;  // see log_collision_free_survival
        const double md = static_cast<double>(m);
        return -l * log1p_inv - (n - md + 0.5) * std::log1p(-md / n) - md + tail_n -
               stirling_tail(n - md);
    };
    const double log_u = std::log(u);  // u == 0 gives -inf: every length survives
    if (log_survival(hi_cap) > log_u) {
        run.length = hi_cap;
        run.collided = hi_cap < cap;
        return run;
    }
    // Invert: the largest l in [1, hi_cap) with ln S(l) > ln u.  Seed at the
    // Gaussian tail approximation S(l) ≈ exp(-2l²/n) — within a few percent
    // of the answer — then gallop a doubling stride to bracket it and close
    // by bisection: O(1) expected survival evaluations, O(log cap) worst
    // case, against the loop sampler's O(L).
    std::uint64_t lo = 1;        // invariant: ln S(lo) > ln u
    std::uint64_t hi = hi_cap;   // invariant: ln S(hi) <= ln u
    const double approx =
        std::sqrt(std::max(0.0, -log_u) * static_cast<double>(population) * 0.5);
    std::uint64_t guess = 1;
    if (approx >= static_cast<double>(hi - 1)) {
        guess = hi - 1;
    } else if (approx > 1.0) {
        guess = static_cast<std::uint64_t>(approx);
    }
    if (log_survival(guess) > log_u) {
        lo = guess;
        for (std::uint64_t stride = 1; lo + stride < hi; stride *= 2) {
            if (log_survival(lo + stride) > log_u) {
                lo += stride;
            } else {
                hi = lo + stride;
                break;
            }
        }
    } else {
        hi = guess;
        for (std::uint64_t stride = 1; hi - stride > lo; stride *= 2) {
            if (log_survival(hi - stride) > log_u) {
                lo = hi - stride;
                break;
            }
            hi -= stride;
        }
    }
    while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (log_survival(mid) > log_u) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    run.length = lo;
    run.collided = run.length < cap;
    return run;
}

}  // namespace plurality::sim::dist
