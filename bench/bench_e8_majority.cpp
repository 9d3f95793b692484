// E8 — the exact-majority substrate versus approximate majority (Appendix A;
// [20] vs [4]): at bias 1 the 3-state dynamics is a coin flip while both
// exact substrates (averaging, cancel–double) decide correctly; at large
// bias everyone is correct and the 3-state protocol is fastest.  Also
// measures the time/state trade between the two exact substrates.  The
// 3-state dynamics is undecided-state dynamics at k = 2 and averaging is
// load balancing's δ, so those two rows run baselines::usd_plurality_protocol
// and loadbalance::load_balance_protocol.
#include <benchmark/benchmark.h>

#include <cmath>

#include "baselines/usd_plurality.h"
#include "loadbalance/load_balancer.h"
#include "majority/averaging_majority.h"
#include "majority/cancel_double.h"
#include "bench/bench_common.h"
#include "sim/census_store.h"
#include "sim/convergence.h"
#include "sim/trial_executor.h"
#include "sim/simulation.h"

namespace {

using namespace plurality;
using namespace plurality::majority;

constexpr std::uint32_t population = 4096;

/// `census` laid out as shuffled agents for a trial seeded with `seed`, the
/// shuffle on a stream of its own.
template <class Agent>
std::vector<Agent> agents_of(const std::vector<sim::census_entry<Agent>>& census,
                             std::uint64_t seed) {
    sim::rng setup(sim::derive_seed(seed, 0xe8));
    return sim::expand_census(census, setup);
}

std::uint32_t bias_from_code(std::int64_t code) {
    // 1 => bias 1; 2 => sqrt(n·log n); 3 => n/4.
    switch (code) {
        case 1:
            return 1;
        case 2:
            return static_cast<std::uint32_t>(
                std::sqrt(population * std::log2(population)));
        default:
            return population / 4;
    }
}

void BM_ThreeState(benchmark::State& state) {
    const std::uint32_t bias = bias_from_code(state.range(0));
    const std::uint32_t minus = (population - bias) / 2;
    const std::uint32_t plus = population - minus;
    for (auto _ : state) {
        const auto summary = bench::shared_executor().run(20, 0xe8100 + bias, [&](std::uint64_t seed) {
            auto agents = agents_of(baselines::binary_census(plus, minus, 0), seed);
            sim::simulation<baselines::usd_plurality_protocol> s{
                baselines::usd_plurality_protocol{}, std::move(agents), seed};
            (void)sim::converge(
                s, [](const auto& sim) { return baselines::consensus_reached(sim); },
                4000ull * population);
            sim::trial_outcome out;
            out.success = baselines::consensus_opinion(s) == 1;
            out.parallel_time = s.parallel_time();
            return out;
        });
        state.counters["success_rate"] = summary.success_rate();
        state.counters["parallel_time"] = summary.time_stats.mean;
        state.counters["bias"] = static_cast<double>(bias);
    }
}
BENCHMARK(BM_ThreeState)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_Averaging(benchmark::State& state) {
    const std::uint32_t bias = bias_from_code(state.range(0));
    const std::uint32_t minus = (population - bias) / 2;
    const std::uint32_t plus = population - minus;
    const std::int64_t amp = default_amplification(population);
    for (auto _ : state) {
        const auto summary = bench::shared_executor().run(20, 0xe8200 + bias, [&](std::uint64_t seed) {
            auto agents = agents_of(averaging_census(plus, minus, 0, amp), seed);
            sim::simulation<loadbalance::load_balance_protocol> s{
                loadbalance::load_balance_protocol{}, std::move(agents), seed};
            (void)sim::converge(
                s,
                [](const auto& sim) {
                    return population_verdict(sim) != majority_verdict::undecided;
                },
                2000ull * population);
            sim::trial_outcome out;
            out.success = population_verdict(s) == majority_verdict::plus;
            out.parallel_time = s.parallel_time();
            return out;
        });
        state.counters["success_rate"] = summary.success_rate();
        state.counters["parallel_time"] = summary.time_stats.mean;
        state.counters["bias"] = static_cast<double>(bias);
        state.counters["states"] = static_cast<double>(2 * amp + 1);
    }
}
BENCHMARK(BM_Averaging)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_CancelDouble(benchmark::State& state) {
    const std::uint32_t bias = bias_from_code(state.range(0));
    const std::uint32_t minus = (population - bias) / 2;
    const std::uint32_t plus = population - minus;
    const std::uint8_t cap = default_level_cap(population);
    for (auto _ : state) {
        const auto summary = bench::shared_executor().run(20, 0xe8300 + bias, [&](std::uint64_t seed) {
            auto agents = agents_of(cancel_double_census(plus, minus, 0), seed);
            sim::simulation<cancel_double_protocol> s{cancel_double_protocol{cap},
                                                      std::move(agents), seed};
            (void)sim::converge(
                s, [](const auto& sim) { return decided_sign(sim) != 0; },
                8000ull * population);
            sim::trial_outcome out;
            out.success = decided_sign(s) == 1;
            out.parallel_time = s.parallel_time();
            return out;
        });
        state.counters["success_rate"] = summary.success_rate();
        state.counters["parallel_time"] = summary.time_stats.mean;
        state.counters["bias"] = static_cast<double>(bias);
        state.counters["states"] = 3.0 * (cap + 1);
    }
}
BENCHMARK(BM_CancelDouble)->Arg(1)->Arg(2)->Arg(3)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
