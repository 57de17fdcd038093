#include "perfbench/layers.h"

#include <algorithm>

namespace perfbench {

void LayerProbe::Begin() {
  before_.clear();
  for (const tas::MetricRegistry* r : registries_) {
    before_.push_back(r->Snapshot());
  }
}

void LayerProbe::End() {
  diff_.clear();
  for (size_t i = 0; i < registries_.size(); ++i) {
    diff_.push_back(tas::MetricRegistry::Diff(before_[i], registries_[i]->Snapshot()));
  }
}

template <typename Fn>
void LayerProbe::ForEach(const std::string& prefix, const std::string& suffix, bool exact,
                         Fn fn) {
  bool found = false;
  for (const tas::MetricSnapshot& snap : diff_) {
    for (const tas::MetricSample& s : snap) {
      const bool match =
          exact ? s.name == prefix
                : s.name.size() >= prefix.size() + suffix.size() &&
                      s.name.compare(0, prefix.size(), prefix) == 0 &&
                      s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) == 0;
      if (match) {
        found = true;
        fn(s.value);
      }
    }
  }
  if (!found) {
    absent_.insert(exact ? prefix : prefix + "*" + suffix);
  }
}

double LayerProbe::Sum(const std::string& name) {
  double sum = 0;
  ForEach(name, "", /*exact=*/true, [&sum](double v) { sum += v; });
  return sum;
}

double LayerProbe::SumMatching(const std::string& prefix, const std::string& suffix) {
  double sum = 0;
  ForEach(prefix, suffix, /*exact=*/false, [&sum](double v) { sum += v; });
  return sum;
}

double LayerProbe::MaxMatching(const std::string& prefix, const std::string& suffix) {
  double max = 0;
  ForEach(prefix, suffix, /*exact=*/false, [&max](double v) { max = std::max(max, v); });
  return max;
}

}  // namespace perfbench
