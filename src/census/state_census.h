// An independent occupancy census: a code -> count multiset with
// increment/decrement and an exact running total.  The census-space
// simulation backend (sim/census_simulator.h) keeps its own counts; this
// class exists so tests can replay and cross-check that bookkeeping against
// an implementation that shares no code with it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>

namespace plurality::census {

/// A counting census: how many agents currently hold each state code.
///
/// Increment/decrement maintain two invariants callers can rely on (and
/// tests/test_state_census.cpp verifies):
///
///  * the total is always the exact sum of all per-state counts (population
///    conservation — moving an agent between states via decrement+increment
///    never changes it), and
///  * a state's count can never go below zero: decrementing an unoccupied
///    state throws std::underflow_error instead of corrupting the census.
class counted_census {
public:
    void increment(std::uint64_t canonical_state, std::uint64_t by = 1) {
        counts_[canonical_state] += by;
        total_ += by;
    }

    void decrement(std::uint64_t canonical_state, std::uint64_t by = 1) {
        const auto it = counts_.find(canonical_state);
        if (it == counts_.end() || it->second < by)
            throw std::underflow_error("counted_census: decrement below zero");
        it->second -= by;
        total_ -= by;
        if (it->second == 0) counts_.erase(it);
    }

    [[nodiscard]] std::uint64_t count_of(std::uint64_t canonical_state) const noexcept {
        const auto it = counts_.find(canonical_state);
        return it == counts_.end() ? 0 : it->second;
    }

    /// Number of *occupied* states (zero-count states are dropped).
    [[nodiscard]] std::size_t distinct() const noexcept { return counts_.size(); }

    /// Σ of all per-state counts.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    void clear() noexcept {
        counts_.clear();
        total_ = 0;
    }

private:
    std::unordered_map<std::uint64_t, std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

}  // namespace plurality::census
