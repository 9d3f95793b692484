// Observability instruments: the counter/histogram/timer types the
// simulation backends embed, plus the compile-time policy that decides
// whether they exist at all.
//
// Design constraints, in order:
//
//  1. The hot loops must not pay for instrumentation they don't use.  The
//     census simulator's table path executes a full collision-free run
//     (~10⁴ interactions at n = 10⁹) in ~10 µs; a per-interaction
//     timestamp would swamp it.  All phase timers therefore wrap
//     *run-granular* blocks, and the whole layer is selected by a template
//     policy: `obs::enabled` embeds real
//     instruments, `obs::disabled` embeds empty no-op twins that the
//     optimizer deletes ([[no_unique_address]] members, inline empty
//     methods).  bench_e19_obs_overhead instantiates both policies in one
//     binary and gates the throughput ratio at >= 0.98.
//
//  2. Counts must stay deterministic.  Counters, gauges and histograms are
//     advanced only by simulation events (never by the clock), so their
//     final values are pure functions of (seed, initial configuration) —
//     byte-identical across --threads, which the metrics tests pin.  Timers
//     are wall-clock by nature and are quarantined to the timing section of
//     the metrics sidecar (scenario/metrics_report.h); they never enter the
//     deterministic report.
//
//  3. Reading the clock must be cheap.  `now_ticks` is one rdtsc on x86-64
//     (~5 ns, no serialization — phase attribution tolerates out-of-order
//     skew) with a steady_clock fallback elsewhere; tick→seconds calibration
//     happens once, lazily, at snapshot time (obs/ticks.cpp), never on the
//     hot path.
//
// The macro PLURALITY_OBS (a PUBLIC compile definition of the plurality
// CMake target, default ON) selects `obs::default_policy`; backends default
// their policy parameter to it, so a single configure flag flips the whole
// tree while individual instantiations (the overhead bench) can still pick
// either policy explicitly.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>

#ifndef PLURALITY_OBS
#define PLURALITY_OBS 1
#endif

namespace plurality::obs {

/// Raw timestamp in calibration-dependent ticks.  x86-64: rdtsc (invariant
/// TSC on anything this repo targets); elsewhere: steady_clock ticks.
[[nodiscard]] inline std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Ticks per second of `now_ticks`, calibrated once on first use
/// (obs/ticks.cpp).  Snapshot-time only — never called on a hot path.
[[nodiscard]] double ticks_per_second();

/// Phase timers sample every `phase_sample_every`-th collision-free run
/// (power of two; backends test `runs % phase_sample_every == 0`) and scale
/// the accumulated ticks back up at collection time.  Run costs are
/// i.i.d.-ish within a regime, so the scaled sum is an unbiased estimate of
/// total phase time at 1/64 of the clock-read cost — the difference between
/// the ~17 ns timestamp showing up in bench_e19's throughput ratio and not.
/// Exhaustive instruments (counters, histograms) are unaffected: only the
/// clock reads are sampled.
inline constexpr std::uint64_t phase_sample_every = 64;

/// Seconds represented by a tick delta.
[[nodiscard]] inline double ticks_to_seconds(std::uint64_t ticks) {
    return static_cast<double>(ticks) / ticks_per_second();
}

/// Monotonic event counter.
class counter {
public:
    void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

private:
    std::uint64_t value_ = 0;
};

/// log₂-bucketed histogram of uint64 values: value v lands in bucket
/// bit_width(v), i.e. bucket 0 holds v = 0 and bucket b >= 1 holds
/// v ∈ [2^(b-1), 2^b).  Also tracks the exact sum, so mean = sum/count is
/// available without widening the buckets.
class log2_histogram {
public:
    static constexpr std::size_t bucket_count = 65;

    void record(std::uint64_t value) noexcept {
        ++buckets_[std::bit_width(value)];
        ++count_;
        sum_ += value;
    }
    [[nodiscard]] const std::array<std::uint64_t, bucket_count>& buckets() const noexcept {
        return buckets_;
    }
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

private:
    std::array<std::uint64_t, bucket_count> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/// Accumulated phase time in ticks; converted to seconds only when read.
class phase_timer {
public:
    void add_ticks(std::uint64_t ticks) noexcept { ticks_ += ticks; }
    [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
    [[nodiscard]] double seconds() const { return ticks_to_seconds(ticks_); }

private:
    std::uint64_t ticks_ = 0;
};

// -- No-op twins (the disabled policy) --------------------------------------
// Empty types with inline empty methods: with [[no_unique_address]] members
// they occupy no space and every call site folds to nothing, which is what
// makes PLURALITY_OBS=OFF a true compile-out rather than a runtime branch.

struct noop_counter {
    void add(std::uint64_t = 1) const noexcept {}
    [[nodiscard]] static constexpr std::uint64_t value() noexcept { return 0; }
};

struct noop_histogram {
    void record(std::uint64_t) const noexcept {}
};

struct noop_timer {
    void add_ticks(std::uint64_t) const noexcept {}
    [[nodiscard]] static constexpr std::uint64_t ticks() noexcept { return 0; }
    [[nodiscard]] static constexpr double seconds() noexcept { return 0.0; }
};

/// Instrumentation on: real instruments, real clock reads.
struct enabled {
    static constexpr bool active = true;
    using counter_t = counter;
    using histogram_t = log2_histogram;
    using timer_t = phase_timer;
};

/// Instrumentation off: everything collapses to no-ops.
struct disabled {
    static constexpr bool active = false;
    using counter_t = noop_counter;
    using histogram_t = noop_histogram;
    using timer_t = noop_timer;
};

/// The build-wide default, selected by the PLURALITY_OBS compile definition
/// (CMake option of the same name; ON unless configured away).
#if PLURALITY_OBS
using default_policy = enabled;
#else
using default_policy = disabled;
#endif

}  // namespace plurality::obs
