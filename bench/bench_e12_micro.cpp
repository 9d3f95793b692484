// E12 — micro-benchmarks of the substrate itself: RNG throughput, scheduler
// sampling, engine interactions/second for representative protocols, and
// the one-way epidemic's Θ(log n) broadcast time.  These calibrate how far
// the experiment sizes can be pushed on one machine.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/plurality_protocol.h"
#include "bench/bench_common.h"
#include "epidemic/epidemic.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;

void BM_RngNext(benchmark::State& state) {
    sim::rng gen(1);
    std::uint64_t sink = 0;
    for (auto _ : state) sink += gen.next();
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNext);

void BM_RngNextBelow(benchmark::State& state) {
    sim::rng gen(2);
    std::uint64_t sink = 0;
    for (auto _ : state) sink += gen.next_below(1000003);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNextBelow);

void BM_SamplePair(benchmark::State& state) {
    sim::rng gen(3);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const auto p = sim::sample_pair(gen, 100000);
        sink += p.initiator + p.responder;
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SamplePair);

void BM_EngineThroughput_Epidemic(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    std::vector<epidemic::epidemic_agent> agents(n);
    agents[0] = {true, 1};
    sim::simulation<epidemic::epidemic_protocol> s{epidemic::epidemic_protocol{},
                                                   std::move(agents), 4};
    for (auto _ : state) s.step();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineThroughput_Epidemic)->Arg(1024)->Arg(65536);

void BM_EngineThroughput_Tournament(benchmark::State& state) {
    const std::uint32_t n = 4096;
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, 8);
    const auto dist = workload::make_bias_one(n, 8);
    sim::rng setup(5);
    core::plurality_protocol proto{cfg};
    auto population = core::plurality_protocol::make_population(cfg, dist, setup);
    sim::simulation<core::plurality_protocol> s{std::move(proto), std::move(population), 6};
    for (auto _ : state) s.step();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineThroughput_Tournament);

void BM_BroadcastTime(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    for (auto _ : state) {
        const auto result = bench::run_scenario("epidemic/broadcast", params, 10, 0xec000 + n);
        bench::report(state, result);
        state.counters["broadcast_pt"] = result.summary.time_stats.mean;
        state.counters["pt_per_log2n"] =
            result.summary.time_stats.mean / std::log2(static_cast<double>(n));
    }
}
BENCHMARK(BM_BroadcastTime)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
