// E2 — state complexity (Theorem 1 (1), Figure 1): the number of distinct
// agent states used over a full SimpleAlgorithm run is O(k + log n); in
// particular it grows *linearly* in k, not quadratically as any
// always-correct protocol must [29].
//
// Two censuses are reported (see docs/ARCHITECTURE.md on the majority substitution):
//   structural — player majority loads bucketed to sign x exponent (the
//                states a [20]-style representation would hold),
//   full       — raw balanced loads (what the averaging substitute stores).
#include <cmath>

#include "bench_common.h"
#include "census/state_census.h"
#include "core/census_encoding.h"
#include "sim/simulation.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

struct census_result {
    std::size_t structural = 0;
    std::size_t full = 0;
    bool converged = false;
};

census_result census_run(const core::protocol_config& cfg,
                         const workload::opinion_distribution& dist, std::uint64_t seed) {
    sim::rng setup(sim::derive_seed(seed, 1));
    core::plurality_protocol proto{cfg};
    auto population = core::plurality_protocol::make_population(cfg, dist, setup);
    sim::simulation<core::plurality_protocol> s{std::move(proto), std::move(population),
                                                sim::derive_seed(seed, 2)};
    census::state_census structural;
    census::state_census full;
    const auto budget = static_cast<std::uint64_t>(cfg.default_time_budget()) * cfg.n;
    while (!core::all_winners(s) && s.interactions() < budget) {
        s.run_for(cfg.n / 4);  // dense sampling: 4 observations per time unit
        for (const auto& a : s.agents()) {
            structural.observe(core::canonical_code(a, cfg, core::census_mode::structural));
            full.observe(core::canonical_code(a, cfg, core::census_mode::full));
        }
    }
    return {structural.distinct(), full.distinct(), core::all_winners(s)};
}

void BM_Census_K(benchmark::State& state) {
    const std::uint32_t n = 1024;
    const auto k = static_cast<std::uint32_t>(state.range(0));
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, k);
    const auto dist = workload::make_bias_one(n, k);
    for (auto _ : state) {
        const auto c = census_run(cfg, dist, 0xe2000 + k);
        state.counters["structural_states"] = static_cast<double>(c.structural);
        state.counters["full_states"] = static_cast<double>(c.full);
        state.counters["states_per_k"] = static_cast<double>(c.structural) / k;
        state.counters["k_squared"] = static_cast<double>(k) * k;  // the Ω(k²) reference
        state.counters["converged"] = c.converged ? 1.0 : 0.0;
    }
}
BENCHMARK(BM_Census_K)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Census_N(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t k = 4;
    const auto cfg = core::protocol_config::make(core::algorithm_mode::ordered, n, k);
    const auto dist = workload::make_bias_one(n, k);
    for (auto _ : state) {
        const auto c = census_run(cfg, dist, 0xe2500 + n);
        state.counters["structural_states"] = static_cast<double>(c.structural);
        state.counters["full_states"] = static_cast<double>(c.full);
        state.counters["states_per_log2n"] =
            static_cast<double>(c.structural) / std::log2(static_cast<double>(n));
        state.counters["converged"] = c.converged ? 1.0 : 0.0;
    }
}
BENCHMARK(BM_Census_N)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
