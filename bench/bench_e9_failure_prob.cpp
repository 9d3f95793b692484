// E9 — the "small chance of failure" itself: the failure probability of
// SimpleAlgorithm at bias 1 shrinks as n grows (the w.h.p. guarantee), and
// ablating the phase-length constant Ψ shows why the Θ(log n) phases are
// needed: too-short phases break the synchronization assumptions and the
// failure rate jumps.
#include "bench_common.h"
#include "core/config.h"
#include "core/result.h"
#include "workload/opinion_distribution.h"

namespace {

using namespace plurality;
using namespace plurality::bench;

/// `bench_trials(trials)` runs of the ordered protocol under an ablated
/// `cfg` from the bias-1 instance at cfg's n and k.  No scenario builds such
/// a configuration, so the trial body is `core::run_to_consensus`, which
/// seeds and checks a run as the scenario driver does.
scenario::scenario_run_result run_ablation(const core::protocol_config& cfg, std::size_t trials,
                                           std::uint64_t base_seed) {
    const auto dist = workload::make_bias_one(cfg.n, cfg.k);
    return scenario::run_trials(
        bench_trials(trials), base_seed, shared_executor(), [&](std::size_t, std::uint64_t seed) {
            const auto r = core::run_to_consensus(cfg, dist, seed);
            scenario::scenario_outcome out;
            out.converged = r.converged;
            out.correct = r.correct;
            out.parallel_time = r.parallel_time;
            out.interactions = r.interactions;
            return out;
        });
}

void BM_FailureRate_N(benchmark::State& state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    scenario::scenario_params params;
    params.n = n;
    params.k = 3;
    for (auto _ : state) {
        const auto runs = run_scenario("plurality/ordered", params, 20, 0xe9000 + n);
        report(state, runs);
        state.counters["failure_rate"] = 1.0 - runs.summary.success_rate();
    }
}
BENCHMARK(BM_FailureRate_N)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Ablation: phase length Ψ = psi_factor · ⌈log2 n⌉.  The default is 4; the
// paper's analysis needs phases long enough for broadcasts, load balancing
// and the match to complete w.h.p.
void BM_PsiAblation(benchmark::State& state) {
    const std::uint32_t n = 1024;
    const std::uint32_t k = 4;
    const auto psi_factor = static_cast<std::uint32_t>(state.range(0));
    core::protocol_config cfg;
    cfg.mode = core::algorithm_mode::ordered;
    cfg.n = n;
    cfg.k = k;
    cfg.psi_factor = psi_factor;
    cfg.finalize();
    for (auto _ : state) {
        const auto runs = run_ablation(cfg, 12, 0xe9500 + psi_factor);
        report(state, runs);
        state.counters["psi"] = static_cast<double>(cfg.psi);
        state.counters["failure_rate"] = 1.0 - runs.summary.success_rate();
    }
}
BENCHMARK(BM_PsiAblation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(6)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// Ablation: token cap (the paper's constant 10).  A larger cap compresses
// more tokens into fewer collectors; a smaller one slows initialization.
void BM_TokenCapAblation(benchmark::State& state) {
    const std::uint32_t n = 1024;
    const std::uint32_t k = 4;
    const auto cap = static_cast<std::uint32_t>(state.range(0));
    core::protocol_config cfg;
    cfg.mode = core::algorithm_mode::ordered;
    cfg.n = n;
    cfg.k = k;
    cfg.token_cap = cap;
    cfg.finalize();
    for (auto _ : state) {
        const auto runs = run_ablation(cfg, 8, 0xe9900 + cap);
        report(state, runs);
        state.counters["token_cap"] = static_cast<double>(cap);
    }
}
BENCHMARK(BM_TokenCapAblation)
    ->Arg(4)
    ->Arg(10)
    ->Arg(20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

PLURALITY_BENCH_MAIN();
