#include "scenario/trace_recorder.h"

#include <cmath>
#include <ostream>

#include "scenario/scenario.h"

namespace plurality::scenario {

void trace_recorder::record(double now, const std::vector<metric>& row) {
    if (rows_.empty())
        for (const metric& m : row) names_.push_back(m.name);
    times_.push_back(now);
    auto& values = rows_.emplace_back();
    for (const metric& m : row) values.push_back(m.value);
    next_due_ = (std::floor(now / cadence_) + 1.0) * cadence_;
}

void trace_recorder::write_csv(std::ostream& os) const {
    os << "# plurality trace: one row per sample on the cadence grid "
          "(cadence "
       << cadence_ << " parallel-time units, first row at t = 0)\n";
    os << "# parallel_time: interactions / n (dimensionless); remaining "
          "columns: scenario metric values at that instant\n";
    os << "parallel_time";
    for (const auto& name : names_) os << ',' << name;
    os << '\n';
    for (std::size_t i = 0; i < times_.size(); ++i) {
        os << times_[i];
        for (const double value : rows_[i]) os << ',' << value;
        os << '\n';
    }
}

}  // namespace plurality::scenario
