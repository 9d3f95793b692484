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
// Determinism contract: slot i of a batch holds `fn(i, derive_seed(base_seed,
// i))` at every thread count.  The one batch runner built on `map`,
// scenario::run_trials (scenario/runner.h), folds those slots in index
// order, so its summary is bitwise identical at every thread count.
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

#include "sim/rng.h"

namespace plurality::sim {

/// Runs batches of independent trials, on the calling thread or on at most
/// `threads()` workers (never more than one per trial).
///
/// Thread safety: `map` may be called repeatedly from one thread; the
/// executor is not itself thread-safe.  The trial callable must be safe to
/// invoke concurrently from multiple threads when `threads() > 1` — pure
/// functions of the seed (the normal case: a scenario trial or
/// `run_to_consensus`) always are; callables that capture and mutate shared
/// state are not and belong on a sequential `trial_executor{1}` instead.
class trial_executor {
public:
    /// `threads == 0` resolves to the hardware concurrency (at least 1).
    explicit trial_executor(std::size_t threads = 0)
        : threads_(threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency())) {}

    [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

    /// Seed-indexed fan-out: assigns `fn(i, derive_seed(base_seed, i))` to
    /// `results[i]` for every slot i, so a caller can treat one trial apart
    /// by its index.  Slot i's value never depends on the thread count.  The caller
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
