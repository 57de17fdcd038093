// Downsampled time series and the periodic sampler that fills them.
//
// A TimeSeries holds (time, value) points with a hard point cap: when the
// cap is hit the series decimates itself (drops every second point and
// doubles its accept stride), so arbitrarily long runs produce bounded,
// plot-ready output while keeping full resolution for short runs. The
// decimation is purely deterministic.
//
// A TimeSeriesSampler owns named series. Series fill two ways:
//  * sweep hooks — callbacks a PeriodicTask runs every sample period, which
//    append to any series (per-core utilization, per-flow state);
//  * event-driven appends — the owner pushes points when the value changes
//    (active fast-path core count, Fig 14).
#ifndef SRC_TRACE_TIMESERIES_H_
#define SRC_TRACE_TIMESERIES_H_

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace tas {

class TimeSeries {
 public:
  explicit TimeSeries(std::string name, size_t max_points = 4096);

  const std::string& name() const { return name_; }
  void Append(TimeNs t, double v);
  const std::vector<std::pair<TimeNs, double>>& points() const { return points_; }
  size_t max_points() const { return max_points_; }
  // Total Append calls, including ones decimation skipped or removed.
  uint64_t appended() const { return appended_; }

 private:
  std::string name_;
  size_t max_points_;
  uint64_t stride_ = 1;  // Accept every stride_-th append once decimated.
  uint64_t appended_ = 0;
  std::vector<std::pair<TimeNs, double>> points_;
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(Simulator* sim) : sim_(sim) {}

  // Find-or-create a series for event-driven appends.
  TimeSeries& Series(const std::string& name, size_t max_points = 4096);

  // Registers a callback invoked once per sweep, for owners that append to a
  // dynamic set of series (e.g. one series per live flow).
  void AddSweepHook(std::function<void(TimeNs)> hook);

  // Starts periodic sweeps; idempotent restart with a new period is allowed.
  void Start(TimeNs period);
  bool running() const { return task_ != nullptr && task_->running(); }
  // Runs one sweep immediately (also what the periodic task calls).
  void SampleNow();

  const std::vector<std::unique_ptr<TimeSeries>>& series() const { return series_; }
  uint64_t sweeps() const { return sweeps_; }

  // One JSON object per line:
  //   {"name":"tas.core.0.util","points":[[1000,0.5],[2000,0.75]]}
  void WriteJsonl(std::ostream& os) const;

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<TimeSeries>> series_;
  std::unordered_map<std::string, TimeSeries*> by_name_;
  std::vector<std::function<void(TimeNs)>> hooks_;
  std::unique_ptr<PeriodicTask> task_;
  uint64_t sweeps_ = 0;
};

}  // namespace tas

#endif  // SRC_TRACE_TIMESERIES_H_
