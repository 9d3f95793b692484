// Shared helpers for the experiment benchmarks (bench/ = one binary per
// experiment, E1–E15).  Each benchmark runs a *fixed, small* number
// of full protocol executions per iteration and reports the measured
// quantities (parallel time, success rate, state counts, ...) as benchmark
// counters; docs/EXPERIMENTS.md maps each experiment to the paper claim or
// engineering question it addresses.
//
// Throughput accounting: every repeated-run helper also records how many
// scheduler interactions were executed and how long the batch took on the
// wall clock, and `report` publishes the ratio as the `interactions_per_sec`
// counter.  That counter is the engine's primary performance metric — the
// BENCH_*.json files track it across PRs.
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>

#include "core/plurality_protocol.h"
#include "core/result.h"
#include "sim/trial_executor.h"
#include "workload/opinion_distribution.h"

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

/// Aggregate of repeated protocol executions on one instance.
struct repeated_runs {
    double mean_parallel_time = 0.0;
    double success_rate = 0.0;
    std::size_t trials = 0;
    std::uint64_t total_interactions = 0;  ///< across all trials
    double wall_seconds = 0.0;             ///< wall clock for the whole batch
    std::size_t threads = 1;               ///< executor fan-out used

    [[nodiscard]] double interactions_per_second() const noexcept {
        return wall_seconds > 0.0 ? static_cast<double>(total_interactions) / wall_seconds : 0.0;
    }
};

/// Runs `trials` executions of the configured protocol on `dist` through
/// `executor` and aggregates correctness, (successful-run) parallel time,
/// and throughput.  Sweeps that exercise trial-level scaling pass their own
/// executor; everything else shares the process-wide one.
inline repeated_runs run_repeated(const core::protocol_config& cfg,
                                  const workload::opinion_distribution& dist, std::size_t trials,
                                  std::uint64_t base_seed,
                                  const sim::trial_executor& executor = shared_executor()) {
    trials = bench_trials(trials);
    const auto started = std::chrono::steady_clock::now();
    const auto summary = executor.run(trials, base_seed, [&](std::uint64_t seed) {
        const auto r = core::run_to_consensus(cfg, dist, seed);
        sim::trial_outcome out;
        out.success = r.correct;
        out.parallel_time = r.parallel_time;
        out.interactions = r.interactions;
        return out;
    });
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - started;
    repeated_runs agg;
    agg.mean_parallel_time = summary.time_stats.mean;
    agg.success_rate = summary.success_rate();
    agg.trials = trials;
    agg.total_interactions = summary.total_interactions;
    agg.wall_seconds = elapsed.count();
    agg.threads = executor.threads();
    return agg;
}

/// Standard counters every experiment row reports.
inline void report(benchmark::State& state, const repeated_runs& runs) {
    state.counters["parallel_time"] = runs.mean_parallel_time;
    state.counters["success_rate"] = runs.success_rate;
    state.counters["trials"] = static_cast<double>(runs.trials);
    state.counters["interactions"] = static_cast<double>(runs.total_interactions);
    state.counters["wall_seconds"] = runs.wall_seconds;
    state.counters["interactions_per_sec"] = runs.interactions_per_second();
    state.counters["threads"] = static_cast<double>(runs.threads);
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
