// Time-series recording of one scenario run: the rows `--trace` writes.
//
// The scenario driver's observer (scenario.h's drive) asks at every
// convergence check whether a row is due and, when one is, records the
// scenario's whole metric row at that instant; the CSV is written once, after
// the run.  Rows fall on a grid anchored at parallel time 0, so a traced run
// starts with the configuration before its first interaction.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace plurality::scenario {

struct metric;  // scenario.h

class trace_recorder {
public:
    /// Rows fall due every `cadence` parallel-time units (<= 0 selects 1.0).
    explicit trace_recorder(double cadence) noexcept : cadence_(cadence > 0.0 ? cadence : 1.0) {}

    /// True when a row is due at parallel time `now`.  Rows are due at 0,
    /// cadence, 2·cadence, ...; the first check at or past a due point
    /// records, so a caller that checks at time 0 (sim/convergence.h's
    /// observer does) gets its first row at exactly t = 0 whatever the
    /// cadence.
    [[nodiscard]] bool due(double now) const noexcept { return now >= next_due_; }

    /// Records `row` as the sample at `now` and moves the grid to its first
    /// point strictly after `now`.  The first row's metric names become the
    /// header; a scenario's metric rows all name the same metrics in the
    /// same order.
    void record(double now, const std::vector<metric>& row);

    [[nodiscard]] std::size_t samples() const noexcept { return times_.size(); }
    [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
    [[nodiscard]] const std::vector<std::string>& names() const noexcept { return names_; }
    /// The values of sample `i`, in the header's order.
    [[nodiscard]] const std::vector<double>& row(std::size_t i) const { return rows_.at(i); }

    /// Writes the rows as CSV: a `#`-prefixed comment block documenting the
    /// column units, then the "parallel_time,metric1,..." header row, then
    /// one line per sample.  Parsers that skip comment lines (pandas'
    /// `comment='#'`, gnuplot) see a plain headed CSV.
    void write_csv(std::ostream& os) const;

private:
    double cadence_;
    double next_due_ = 0.0;  ///< next grid point a row is owed at
    std::vector<std::string> names_;
    std::vector<double> times_;
    std::vector<std::vector<double>> rows_;
};

}  // namespace plurality::scenario
