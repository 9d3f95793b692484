#include "workload/opinion_distribution.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace plurality::workload {

namespace {

/// Moves one agent from the runner-up to the leader until the plurality is
/// unique.  Keeps the distribution as close to the generated one as possible.
void repair_unique_plurality(std::vector<std::uint32_t>& support) {
    if (support.size() < 2) return;
    while (true) {
        std::size_t best = 0;
        std::size_t second = 1;
        if (support[second] > support[best]) std::swap(best, second);
        for (std::size_t i = 2; i < support.size(); ++i) {
            if (support[i] > support[best]) {
                second = best;
                best = i;
            } else if (support[i] > support[second]) {
                second = i;
            }
        }
        if (support[best] > support[second]) return;
        // Tie: promote the lower-index opinion of the tied pair.
        const std::size_t winner = std::min(best, second);
        const std::size_t loser = std::max(best, second);
        if (support[loser] == 0) return;  // degenerate; nothing to move
        ++support[winner];
        --support[loser];
    }
}

}  // namespace

opinion_distribution::opinion_distribution(std::vector<std::uint32_t> support)
    : support_(std::move(support)) {
    if (support_.empty()) throw std::invalid_argument("opinion_distribution: k must be >= 1");
    total_ = std::accumulate(support_.begin(), support_.end(), std::uint32_t{0});
    if (total_ == 0) throw std::invalid_argument("opinion_distribution: empty population");
}

std::uint32_t opinion_distribution::plurality_opinion() const {
    const auto it = std::max_element(support_.begin(), support_.end());
    return static_cast<std::uint32_t>(it - support_.begin()) + 1;
}

std::uint32_t opinion_distribution::x_max() const {
    return *std::max_element(support_.begin(), support_.end());
}

std::uint32_t opinion_distribution::bias() const {
    if (support_.size() < 2) return total_;
    std::uint32_t best = 0;
    std::uint32_t second = 0;
    for (std::uint32_t s : support_) {
        if (s >= best) {
            second = best;
            best = s;
        } else if (s > second) {
            second = s;
        }
    }
    return best - second;
}

bool opinion_distribution::plurality_unique() const {
    const std::uint32_t best = x_max();
    return std::count(support_.begin(), support_.end(), best) == 1;
}

opinion_distribution make_bias_one(std::uint32_t n, std::uint32_t k, std::uint32_t bias) {
    if (k == 0 || n < k) throw std::invalid_argument("make_bias_one: need n >= k >= 1");
    if (k == 1) return opinion_distribution{{n}};

    std::vector<std::uint32_t> support(k, 0);
    // Start from the flattest split, then shift weight from the smallest
    // opinions to the first until the gap to opinion 2 is `bias`.  For k = 2
    // and even n the parity makes an odd gap impossible; the loop then stops
    // at bias+1, the smallest feasible gap.
    for (std::uint32_t i = 0; i < k; ++i) support[i] = n / k + (i < n % k ? 1 : 0);
    std::sort(support.begin(), support.end(), std::greater<>());
    while (support[0] - support[1] < bias) {
        // Take from the smallest opinion that still has more than one agent.
        auto donor = std::find_if(support.rbegin(), support.rend() - 1,
                                  [](std::uint32_t s) { return s > 1; });
        if (donor == support.rend() - 1) {
            throw std::invalid_argument("make_bias_one: bias infeasible for n, k");
        }
        --(*donor);
        ++support[0];
        std::sort(support.begin() + 1, support.end(), std::greater<>());
    }
    return opinion_distribution{std::move(support)};
}

opinion_distribution make_uniform_random(std::uint32_t n, std::uint32_t k, sim::rng& gen) {
    if (k == 0 || n < k) throw std::invalid_argument("make_uniform_random: need n >= k >= 1");
    std::vector<std::uint32_t> support(k, 1);  // every opinion is present
    for (std::uint32_t i = k; i < n; ++i) ++support[gen.next_below(k)];
    repair_unique_plurality(support);
    return opinion_distribution{std::move(support)};
}

opinion_distribution make_zipf(std::uint32_t n, std::uint32_t k, double s, sim::rng& gen) {
    if (k == 0 || n < k) throw std::invalid_argument("make_zipf: need n >= k >= 1");
    std::vector<double> weight(k);
    double total_weight = 0.0;
    for (std::uint32_t i = 0; i < k; ++i) {
        weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
        total_weight += weight[i];
    }
    std::vector<std::uint32_t> support(k, 1);
    std::uint32_t remaining = n - k;
    // Deterministic expectation rounding plus random remainder placement.
    for (std::uint32_t i = 0; i < k && remaining > 0; ++i) {
        const auto share = static_cast<std::uint32_t>(
            std::floor(static_cast<double>(remaining) * weight[i] / total_weight));
        support[i] += std::min(share, remaining);
    }
    std::uint32_t placed = std::accumulate(support.begin(), support.end(), std::uint32_t{0});
    while (placed < n) {
        // Weighted sampling by inverse CDF over the Zipf weights.
        double r = gen.next_unit() * total_weight;
        std::uint32_t idx = 0;
        while (idx + 1 < k && r >= weight[idx]) {
            r -= weight[idx];
            ++idx;
        }
        ++support[idx];
        ++placed;
    }
    repair_unique_plurality(support);
    return opinion_distribution{std::move(support)};
}

opinion_distribution make_dominant_plus_dust(std::uint32_t n, double dominant_fraction,
                                             std::uint32_t dust_opinions) {
    if (dominant_fraction <= 0.0 || dominant_fraction >= 1.0)
        throw std::invalid_argument("make_dominant_plus_dust: fraction must be in (0,1)");
    auto dominant = static_cast<std::uint32_t>(static_cast<double>(n) * dominant_fraction);
    dominant = std::max<std::uint32_t>(dominant, 1);
    const std::uint32_t rest = n - dominant;
    if (dust_opinions == 0 || rest < dust_opinions)
        throw std::invalid_argument("make_dominant_plus_dust: too many dust opinions");
    std::vector<std::uint32_t> support;
    support.reserve(dust_opinions + 1);
    support.push_back(dominant);
    for (std::uint32_t i = 0; i < dust_opinions; ++i)
        support.push_back(rest / dust_opinions + (i < rest % dust_opinions ? 1 : 0));
    opinion_distribution dist{std::move(support)};
    if (!dist.plurality_unique() || dist.plurality_opinion() != 1)
        throw std::invalid_argument("make_dominant_plus_dust: dominant opinion not dominant");
    return dist;
}

opinion_distribution make_two_heavy_plus_dust(std::uint32_t n, std::uint32_t bias,
                                              std::uint32_t dust_opinions) {
    // Dust gets ~10% of the population; the two heavy opinions split the rest
    // with the requested gap.
    std::uint32_t dust_total = dust_opinions == 0 ? 0 : std::max(n / 10, dust_opinions);
    std::uint32_t heavy_total = n - dust_total;
    if (heavy_total < bias + 2)
        throw std::invalid_argument("make_two_heavy_plus_dust: population too small");
    if ((heavy_total - bias) % 2 != 0) {
        // Fix the parity so the two heavy opinions realize the gap exactly.
        if (dust_opinions == 0) throw std::invalid_argument("make_two_heavy_plus_dust: parity");
        ++dust_total;
        --heavy_total;
    }
    const std::uint32_t second = (heavy_total - bias) / 2;
    const std::uint32_t first = heavy_total - second;
    std::vector<std::uint32_t> support{first, second};
    for (std::uint32_t i = 0; i < dust_opinions; ++i)
        support.push_back(dust_total / dust_opinions + (i < dust_total % dust_opinions ? 1 : 0));
    return opinion_distribution{std::move(support)};
}

}  // namespace plurality::workload
