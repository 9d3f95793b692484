// E11 — the cancellation-phase substrate ([12, 28]): floor/ceil averaging
// reaches constant discrepancy in O(log n) parallel time, for the load
// shapes the tournament actually produces (opposing ±token blocks).
#include <cmath>
#include <vector>

#include "bench/bench_common.h"
#include "loadbalance/load_balancer.h"
#include "sim/rng.h"

namespace {

using namespace plurality;
using namespace plurality::loadbalance;

/// The outcome of one balancing run from `loads`: `measure_balancing_time`
/// returns a negative time when the 2000-unit budget runs out.
scenario::scenario_outcome balance(const std::vector<std::int64_t>& loads, std::uint64_t seed) {
    scenario::scenario_outcome out;
    out.parallel_time = measure_balancing_time(loads, 2, 2000.0, seed);
    out.converged = out.correct = out.parallel_time >= 0.0;
    return out;
}

void BM_Balance_RandomLoads(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        const auto summary =
            scenario::run_trials(bench::bench_trials(10), 0xeb000 + n, bench::shared_executor(),
                                 [n](std::size_t, std::uint64_t seed) {
                                     sim::rng gen(seed);
                                     std::vector<std::int64_t> loads(n);
                                     for (auto& l : loads)
                                         l = static_cast<std::int64_t>(gen.next_below(21)) - 10;
                                     return balance(loads, seed);
                                 })
                .summary;
        state.counters["success_rate"] = summary.success_rate();
        state.counters["parallel_time"] = summary.time_stats.mean;
        state.counters["pt_per_log2n"] =
            summary.time_stats.mean / std::log2(static_cast<double>(n));
    }
}
BENCHMARK(BM_Balance_RandomLoads)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Arg(8192)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// The tournament's shape: a defender block of +cap tokens, a challenger
// block of -cap tokens, signed difference = bias.
void BM_Balance_TournamentShape(benchmark::State& state) {
    const std::uint32_t n = 2048;
    const auto bias = static_cast<std::int64_t>(state.range(0));
    for (auto _ : state) {
        std::vector<std::int64_t> loads(n, 0);
        const std::size_t blocks = n / 8;
        for (std::size_t i = 0; i < blocks; ++i) loads[i] = 10;
        for (std::size_t i = blocks; i < 2 * blocks; ++i) loads[i] = -10;
        loads[2 * blocks] = bias;  // the plurality's edge
        const auto summary =
            scenario::run_trials(bench::bench_trials(10), 0xeb500 + bias, bench::shared_executor(),
                                 [&loads](std::size_t, std::uint64_t seed) {
                                     return balance(loads, seed);
                                 })
                .summary;
        state.counters["success_rate"] = summary.success_rate();
        state.counters["parallel_time"] = summary.time_stats.mean;
    }
}
BENCHMARK(BM_Balance_TournamentShape)
    ->Arg(1)
    ->Arg(4)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
