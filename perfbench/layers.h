// Per-layer counters read from the program's metric registries by name.
//
// A LayerProbe snapshots a set of registries at the start and the end of
// the measured phase and answers sum / max queries over the difference.
// Metrics are looked up by name at run time, never through typed accessors,
// so a counter that a later change renames or removes is reported as absent
// instead of breaking the benchmark's build.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <set>
#include <string>
#include <vector>

#include "src/trace/metric_registry.h"

namespace perfbench {

class LayerProbe {
 public:
  void Add(const tas::MetricRegistry* registry) { registries_.push_back(registry); }

  void Begin();
  void End();

  // Sum over every registry of the measured-phase change of the metric
  // called `name` (gauges contribute their value at End).
  double Sum(const std::string& name);
  // Same, over every metric whose name starts with `prefix` and ends with
  // `suffix`.
  double SumMatching(const std::string& prefix, const std::string& suffix);
  // Largest End value among metrics matching `prefix`...`suffix`.
  double MaxMatching(const std::string& prefix, const std::string& suffix);

  // Queries that matched no registered metric.
  const std::set<std::string>& absent() const { return absent_; }

 private:
  template <typename Fn>
  void ForEach(const std::string& prefix, const std::string& suffix, bool exact, Fn fn);

  std::vector<const tas::MetricRegistry*> registries_;
  std::vector<tas::MetricSnapshot> before_;
  std::vector<tas::MetricSnapshot> diff_;
  std::set<std::string> absent_;
};

// Ratio helper that reports 0 for an empty base instead of dividing by zero.
inline double Per(double value, double base) { return base > 0 ? value / base : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
