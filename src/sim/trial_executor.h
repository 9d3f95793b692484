// Repeated-trial execution engine.
//
// Population protocols give "with high probability" guarantees; a single run
// proves little, so every experiment runs hundreds of independent trials.
// Trials are embarrassingly parallel — trial i's randomness is the stream
// `derive_seed(base_seed, i)` regardless of which thread executes it — and
// the `trial_executor` fans each batch out over worker threads it starts for
// that batch and joins before returning.  Every batch is whole protocol
// runs (E14's threads:4 rows: 8 trials of 2·10⁶ interactions each), so
// starting the workers per batch does not show in the throughput, and no
// thread outlives the call that needed it.
//
// Determinism contract: for a fixed `(trials, base_seed, trial)` the summary
// is bitwise identical at every thread count.  Two ingredients make this
// hold: per-trial seed derivation is index-based (not order-of-execution
// based), and outcomes are collected into a slot-per-trial vector that is
// aggregated sequentially in index order after all workers finish.
//
// Two entry points share that contract: `run` (trial_outcome batches, the
// benchmark path) and the generic `map` (any result type, written into
// slots the caller allocated — the primitive the scenario runner fans
// trials out through, on every simulation backend).
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/stats.h"
#include "sim/rng.h"

namespace plurality::sim {

/// Outcome of one randomized trial.
struct trial_outcome {
    bool success = false;            ///< did the protocol reach the correct output?
    double parallel_time = 0.0;      ///< parallel time at convergence (or budget)
    std::uint64_t interactions = 0;  ///< interactions executed (throughput accounting)
};

/// Aggregated view over many trials.
struct trial_summary {
    std::size_t trials = 0;
    std::size_t successes = 0;
    analysis::summary_stats time_stats;    ///< over successful trials
    std::uint64_t total_interactions = 0;  ///< over all trials

    [[nodiscard]] double success_rate() const noexcept {
        return trials == 0 ? 0.0 : static_cast<double>(successes) / static_cast<double>(trials);
    }
};

/// Folds per-trial outcomes (in index order) into a summary; the out-of-line
/// step of `trial_executor::run`.
[[nodiscard]] trial_summary aggregate_trials(std::span<const trial_outcome> outcomes);

/// A callable usable as a trial body: maps a seed to its outcome.
template <class T>
concept trial_fn = requires(T& t, std::uint64_t seed) {
    { t(seed) } -> std::convertible_to<trial_outcome>;
};

/// Runs batches of independent trials, on the calling thread or on at most
/// `threads()` workers (never more than one per trial).
///
/// Thread safety: `run` may be called repeatedly from one thread; the
/// executor is not itself thread-safe.  The trial callable must be safe to
/// invoke concurrently from multiple threads when `threads() > 1` — pure
/// functions of the seed (the normal case: `run_to_consensus` and friends)
/// always are; callables that capture and mutate shared state are not and
/// belong on a sequential `trial_executor{1}` instead.
class trial_executor {
public:
    /// `threads == 0` resolves to the hardware concurrency (at least 1).
    explicit trial_executor(std::size_t threads = 0)
        : threads_(threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency())) {}

    [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

    template <trial_fn Trial>
    [[nodiscard]] trial_summary run(std::size_t trials, std::uint64_t base_seed,
                                    Trial&& trial) const {
        std::vector<trial_outcome> outcomes(trials);
        map(std::span{outcomes}, base_seed,
            [&trial](std::size_t, std::uint64_t seed) { return trial(seed); });
        return aggregate_trials(outcomes);
    }

    /// Generic seed-indexed fan-out: assigns `fn(i, derive_seed(base_seed,
    /// i))` to `results[i]` for every slot i, so a caller can treat one trial
    /// apart by its index.  The same determinism contract as `run` holds —
    /// slot i's value never depends on the thread count.  The caller
    /// allocates the slots, so an allocation failure surfaces before any
    /// worker starts.  `fn` must be safe to invoke concurrently when
    /// `threads() > 1`.
    ///
    /// Workers claim indices from a shared counter (dynamic load balancing
    /// — trial durations vary a lot near the success/timeout boundary).  The
    /// first exception a trial throws, or a failure to start a worker, stops
    /// the rest from claiming more and is rethrown once all have joined.
    template <class Result, class Fn>
        requires std::invocable<Fn&, std::size_t, std::uint64_t>
    void map(std::span<Result> results, std::uint64_t base_seed, Fn&& fn) const {
        const std::size_t workers = std::min(threads_, results.size());
        if (workers <= 1) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                results[i] = fn(i, derive_seed(base_seed, i));
            }
            return;
        }
        std::atomic<std::size_t> next_index{0};
        std::atomic<bool> failed{false};
        std::mutex error_mutex;
        std::exception_ptr first_error;  // guarded by error_mutex until the join
        const auto fail = [&](std::exception_ptr error) {
            const std::lock_guard lock(error_mutex);
            if (!first_error) first_error = std::move(error);
            failed.store(true, std::memory_order_relaxed);
        };
        const auto work = [&] {
            for (;;) {
                const std::size_t i = next_index.fetch_add(1, std::memory_order_relaxed);
                if (i >= results.size() || failed.load(std::memory_order_relaxed)) return;
                try {
                    results[i] = fn(i, derive_seed(base_seed, i));
                } catch (...) {
                    fail(std::current_exception());
                    return;
                }
            }
        };
        {
            std::vector<std::jthread> started;
            started.reserve(workers);
            try {
                for (std::size_t w = 0; w < workers; ++w) started.emplace_back(work);
            } catch (...) {
                fail(std::current_exception());
            }
        }  // joins every started worker
        if (first_error) std::rethrow_exception(first_error);
    }

private:
    std::size_t threads_;
};

}  // namespace plurality::sim
