// Shared helpers for the experiment benchmarks (bench/ = one binary per
// experiment, E1–E19).  Each benchmark runs a *fixed, small* number
// of full protocol executions per iteration and reports the measured
// quantities (parallel time, success rate, state counts, ...) as benchmark
// counters; docs/EXPERIMENTS.md maps each experiment to the paper claim or
// engineering question it addresses.
//
// Every repeated-trial row is one batch of the scenario runner
// (scenario/runner.h): a registered scenario through `run_scenario`, the
// same trial `plurality_run` runs for that seed, or a body of the
// experiment's own through `scenario::run_trials`.  `report` publishes the
// batch's standard counters, among them `interactions_per_sec`: scheduler
// interactions over the batch's wall clock, the engine's primary
// performance metric — the BENCH_*.json files track it across PRs.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>

#include "scenario/registry.h"
#include "scenario/runner.h"
#include "sim/trial_executor.h"

namespace plurality::bench {

/// Build type this benchmark binary (and the plurality library, which is
/// always built in the same configuration) was compiled as.  Recorded
/// BENCH_*.json numbers are only meaningful at Release/-O3; see
/// `guard_json_recording`.
[[nodiscard]] constexpr const char* plurality_build_type() noexcept {
#ifdef NDEBUG
    return "release";
#else
    return "debug";
#endif
}

/// True when this invocation records machine-readable output: any
/// `--benchmark_out=...`, a JSON/CSV `--benchmark_format`, or the
/// environment-variable forms of the same flags (google-benchmark defaults
/// every flag from `BENCHMARK_<NAME>` before parsing argv).
[[nodiscard]] inline bool recording_requested(int argc, char** argv) noexcept {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--benchmark_out=", 0) == 0) return true;
        if (arg.rfind("--benchmark_format=", 0) == 0 && arg != "--benchmark_format=console")
            return true;
    }
    if (const char* out = std::getenv("BENCHMARK_OUT"); out != nullptr && *out != '\0')
        return true;
    if (const char* format = std::getenv("BENCHMARK_FORMAT");
        format != nullptr && *format != '\0' && std::string_view{format} != "console")
        return true;
    return false;
}

/// Bench hygiene: recorded BENCH_*.json files must come from Release builds
/// (BENCH_E14.json was once recorded against a debug library — useless for
/// throughput tracking).  Refuses recording invocations of a debug binary
/// unless `PLURALITY_BENCH_ALLOW_DEBUG_RECORDING` is set, and always tags
/// the benchmark context with `plurality_build_type` so a recorded JSON
/// carries its own provenance.  (The separate `library_build_type` context
/// field describes the *google-benchmark* library build, which we cannot
/// rebuild; scripts/run_benches.sh warns loudly when it reports "debug".)
/// `recording` must be evaluated on the *original* argv, before
/// benchmark::Initialize strips the --benchmark_* flags.  Returns false
/// when the invocation must be refused.
[[nodiscard]] inline bool guard_json_recording(bool recording) noexcept {
    benchmark::AddCustomContext("plurality_build_type", plurality_build_type());
    if (std::strcmp(plurality_build_type(), "release") == 0) return true;
    if (!recording) return true;
    if (std::getenv("PLURALITY_BENCH_ALLOW_DEBUG_RECORDING") != nullptr) {
        std::fprintf(stderr,
                     "bench: WARNING: recording from a DEBUG build "
                     "(PLURALITY_BENCH_ALLOW_DEBUG_RECORDING is set); do NOT check "
                     "the output in as a BENCH_*.json\n");
        return true;
    }
    std::fprintf(stderr,
                 "bench: refusing to record benchmark output from a DEBUG build.\n"
                 "       Recorded BENCH_*.json numbers must come from Release (-O3); use\n"
                 "       scripts/run_benches.sh, or set PLURALITY_BENCH_ALLOW_DEBUG_RECORDING=1\n"
                 "       to override for throwaway local runs.\n");
    return false;
}

/// Value of the integer environment knob `name`: nullopt when it is unset,
/// its value when it is a whole base-10 number from `min` to `max`.  Any
/// other value prints one line naming the knob, its value and the accepted
/// range, and exits with status 2 — a typo must not silently re-scope a
/// sweep.
inline std::optional<long> env_knob(const char* name, long min, long max) {
    const char* env = std::getenv(name);
    if (env == nullptr) return std::nullopt;
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(env, &end, 10);
    if (errno == 0 && end != env && *end == '\0' && value >= min && value <= max) return value;
    std::fprintf(stderr, "invalid %s '%s' (expected a whole number from %ld to %ld)\n", name, env,
                 min, max);
    std::exit(2);
}

/// Process-wide trial executor for benchmark batches.
///
/// Thread count resolution: `$PLURALITY_BENCH_THREADS` if set (`0` means
/// "hardware concurrency"; more than 256 workers is certainly a typo, not
/// a machine), otherwise 1.  The default is sequential on purpose —
/// recorded experiment timings must not depend on how loaded the
/// benchmarking machine happens to be — while the env var lets a sweep like
/// E14's end-to-end rows fan out without rebuilding.  Trial summaries are
/// bitwise identical at every thread count, so correctness counters never
/// depend on this setting.
inline const sim::trial_executor& shared_executor() {
    static const sim::trial_executor executor{
        static_cast<std::size_t>(env_knob("PLURALITY_BENCH_THREADS", 0, 256).value_or(1))};
    return executor;
}

/// Trial-count resolution for repeated-run batches: the experiment's
/// hard-coded count by default, `$PLURALITY_BENCH_TRIALS` (1 to 10⁶; beyond
/// that is a typo, not a sweep) when set.  Raising it tightens the
/// success-rate estimates of recorded tables without a rebuild; the env var
/// wins over every per-experiment constant.
inline std::size_t bench_trials(std::size_t fallback) {
    static const std::optional<long> trials = env_knob("PLURALITY_BENCH_TRIALS", 1, 1'000'000);
    return trials ? static_cast<std::size_t>(*trials) : fallback;
}

/// Runs `bench_trials(trials)` trials of the registered scenario `name` on
/// the agent backend: trial i is the trial `plurality_run --scenario name
/// --seed base_seed` runs as its trial i.  An unregistered name prints one
/// line and exits 1.  Sweeps that exercise trial-level scaling pass their
/// own executor; everything else shares the process-wide one.
inline scenario::scenario_run_result run_scenario(
    const char* name, const scenario::scenario_params& params, std::size_t trials,
    std::uint64_t base_seed, const sim::trial_executor& executor = shared_executor()) {
    const auto* s = scenario::scenario_registry::instance().find(name);
    if (s == nullptr) {
        std::fprintf(stderr, "bench: scenario '%s' is not registered\n", name);
        std::exit(1);
    }
    return scenario::run_scenario_trials(*s, params, bench_trials(trials), base_seed, executor);
}

/// Standard counters every experiment row reports: `parallel_time` is the
/// mean over converged trials, `success_rate` the share of correct ones.
inline void report(benchmark::State& state, const scenario::scenario_run_result& result) {
    const auto& summary = result.summary;
    state.counters["parallel_time"] = summary.time_stats.mean;
    state.counters["success_rate"] = summary.success_rate();
    state.counters["trials"] = static_cast<double>(summary.trials);
    state.counters["interactions"] = static_cast<double>(summary.total_interactions);
    state.counters["wall_seconds"] = result.wall_seconds;
    state.counters["interactions_per_sec"] =
        result.wall_seconds > 0.0
            ? static_cast<double>(summary.total_interactions) / result.wall_seconds
            : 0.0;
    state.counters["threads"] = static_cast<double>(result.threads);
}

}  // namespace plurality::bench

/// Drop-in replacement for BENCHMARK_MAIN() used by every experiment
/// binary: identical, except that both environment knobs are checked before
/// any benchmark runs (a bad value exits 2) and recording invocations pass
/// through `guard_json_recording` (debug-build refusal + build-type context
/// tag).
#define PLURALITY_BENCH_MAIN()                                                 \
    int main(int argc, char** argv) {                                          \
        const bool plurality_bench_recording =                                 \
            ::plurality::bench::recording_requested(argc, argv);               \
        benchmark::Initialize(&argc, argv);                                    \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
        (void)::plurality::bench::shared_executor();                           \
        (void)::plurality::bench::bench_trials(1);                             \
        if (!::plurality::bench::guard_json_recording(plurality_bench_recording)) \
            return 1;                                                          \
        benchmark::RunSpecifiedBenchmarks();                                   \
        benchmark::Shutdown();                                                 \
        return 0;                                                              \
    }                                                                          \
    int main(int, char**)
