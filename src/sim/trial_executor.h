// Repeated-trial execution engine.
//
// Population protocols give "with high probability" guarantees; a single run
// proves little, so every experiment runs hundreds of independent trials.
// Trials are embarrassingly parallel — trial i's randomness is the stream
// `derive_seed(base_seed, i)` regardless of which thread executes it — and
// the `trial_executor` fans them out across a worker pool.
//
// Determinism contract: for a fixed `(trials, base_seed, trial)` the summary
// is bitwise identical at every thread count.  Two ingredients make this
// hold: per-trial seed derivation is index-based (not order-of-execution
// based), and outcomes are collected into a slot-per-trial vector that is
// aggregated sequentially in index order after all workers finish.
//
// Two entry points share that contract: `run` (trial_outcome batches, the
// benchmark path) and the generic `map` (any default-constructible result
// type — the primitive the scenario runner fans trials out through, on
// either simulation backend).
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/stats.h"
#include "sim/rng.h"
#include "sim/thread_pool.h"

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

/// Runs batches of independent trials, optionally across a thread pool.
///
/// Thread safety: `run` may be called repeatedly from one thread; the
/// executor is not itself thread-safe.  The trial callable must be safe to
/// invoke concurrently from multiple threads when `threads() > 1` — pure
/// functions of the seed (the normal case: `run_to_consensus` and friends)
/// always are; callables that capture and mutate shared state are not and
/// belong on a sequential `trial_executor{1}` instead.
class trial_executor {
public:
    /// `threads == 0` resolves to the hardware concurrency.  A pool is only
    /// spun up for `threads > 1`.
    explicit trial_executor(std::size_t threads = 0);

    [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

    template <trial_fn Trial>
    [[nodiscard]] trial_summary run(std::size_t trials, std::uint64_t base_seed,
                                    Trial&& trial) const {
        const auto outcomes = map(trials, base_seed, [&trial](std::uint64_t seed) -> trial_outcome {
            return trial(seed);
        });
        return aggregate_trials(outcomes);
    }

    /// Generic seed-indexed fan-out: evaluates `fn(derive_seed(base_seed, i))`
    /// for i in [0, count) and returns the results in index order.  The same
    /// determinism contract as `run` holds — slot i's value never depends on
    /// the thread count.  The result type must be default-constructible;
    /// `fn` must be safe to invoke concurrently when `threads() > 1`.
    template <class Fn>
        requires std::invocable<Fn&, std::uint64_t>
    [[nodiscard]] auto map(std::size_t count, std::uint64_t base_seed, Fn&& fn) const
        -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::uint64_t>>> {
        std::vector<std::decay_t<std::invoke_result_t<Fn&, std::uint64_t>>> results(count);
        if (threads_ <= 1 || count <= 1) {
            for (std::size_t i = 0; i < count; ++i) results[i] = fn(derive_seed(base_seed, i));
        } else {
            run_on_pool(results, base_seed, fn);
        }
        return results;
    }

private:
    /// Parallel fan-out: workers claim trial indices from a shared counter
    /// (dynamic load balancing — trial durations vary a lot near the
    /// success/timeout boundary) and write into their outcome slot.  The
    /// first exception thrown by any trial is rethrown on the caller.
    template <class Result, class Trial>
    void run_on_pool(std::vector<Result>& outcomes, std::uint64_t base_seed, Trial& trial) const {
        std::atomic<std::size_t> next_index{0};
        std::atomic<bool> failed{false};
        std::exception_ptr first_error;
        std::mutex error_mutex;

        const std::size_t jobs = std::min(threads_, outcomes.size());
        try {
            for (std::size_t j = 0; j < jobs; ++j) {
                pool_->submit([&] {
                    for (;;) {
                        const std::size_t i = next_index.fetch_add(1, std::memory_order_relaxed);
                        if (i >= outcomes.size() || failed.load(std::memory_order_relaxed)) return;
                        try {
                            outcomes[i] = trial(derive_seed(base_seed, i));
                        } catch (...) {
                            const std::lock_guard lock(error_mutex);
                            if (!first_error) first_error = std::current_exception();
                            failed.store(true, std::memory_order_relaxed);
                            return;
                        }
                    }
                });
            }
        } catch (...) {
            // submit itself failed (allocation): already-enqueued jobs still
            // reference this frame's locals, so stop them and drain the pool
            // before the exception unwinds the frame.
            failed.store(true, std::memory_order_relaxed);
            pool_->wait_idle();
            throw;
        }
        pool_->wait_idle();
        if (first_error) std::rethrow_exception(first_error);
    }

    std::size_t threads_;
    std::unique_ptr<thread_pool> pool_;  ///< null when threads_ <= 1
};

}  // namespace plurality::sim
