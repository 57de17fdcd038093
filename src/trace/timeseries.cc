#include "src/trace/timeseries.h"

#include <algorithm>

#include "src/trace/metric_registry.h"
#include "src/util/logging.h"

namespace tas {

TimeSeries::TimeSeries(std::string name, size_t max_points)
    : name_(std::move(name)), max_points_(max_points < 4 ? 4 : max_points) {}

void TimeSeries::Append(TimeNs t, double v) {
  // Once decimated, accept only every stride_-th append so the series keeps
  // thinning at the same rate it did when it overflowed.
  if (appended_++ % stride_ != 0) {
    return;
  }
  // Storage grows with the points actually appended, capped at the point
  // limit: most series stay short, and a 1<<16-point cap is 1 MiB.
  if (points_.size() == points_.capacity()) {
    points_.reserve(std::min(std::max<size_t>(2 * points_.capacity(), 16), max_points_));
  }
  points_.emplace_back(t, v);
  if (points_.size() >= max_points_) {
    // Drop every second point (keep the first) and double the stride.
    size_t w = 0;
    for (size_t r = 0; r < points_.size(); r += 2) {
      points_[w++] = points_[r];
    }
    points_.resize(w);
    stride_ *= 2;
  }
}

TimeSeries& TimeSeriesSampler::Series(const std::string& name, size_t max_points) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return *it->second;
  }
  series_.push_back(std::make_unique<TimeSeries>(name, max_points));
  TimeSeries* s = series_.back().get();
  by_name_[name] = s;
  return *s;
}

TimeSeries* TimeSeriesSampler::Find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const TimeSeries* TimeSeriesSampler::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

void TimeSeriesSampler::AddProbe(const std::string& name, std::function<double()> fn,
                                 size_t max_points) {
  TAS_CHECK(fn != nullptr);
  probes_.push_back(Probe{&Series(name, max_points), std::move(fn)});
}

void TimeSeriesSampler::AddSweepHook(std::function<void(TimeNs)> hook) {
  TAS_CHECK(hook != nullptr);
  hooks_.push_back(std::move(hook));
}

void TimeSeriesSampler::Start(TimeNs period) {
  TAS_CHECK(period > 0);
  task_ = std::make_unique<PeriodicTask>(sim_, period, [this] { SampleNow(); });
  task_->Start();
}

void TimeSeriesSampler::Stop() {
  if (task_ != nullptr) {
    task_->Stop();
  }
}

void TimeSeriesSampler::SampleNow() {
  const TimeNs now = sim_->Now();
  ++sweeps_;
  for (Probe& probe : probes_) {
    probe.series->Append(now, probe.fn());
  }
  for (auto& hook : hooks_) {
    hook(now);
  }
}

void TimeSeriesSampler::WriteJsonl(std::ostream& os) const {
  for (const auto& series : series_) {
    os << "{\"name\":";
    JsonEscape(series->name(), os);
    os << ",\"points\":[";
    bool first = true;
    for (const auto& [t, v] : series->points()) {
      if (!first) {
        os << ',';
      }
      first = false;
      os << '[' << t << ',' << JsonNumber(v) << ']';
    }
    os << "]}\n";
  }
}

}  // namespace tas
