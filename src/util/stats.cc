#include "src/util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/util/logging.h"

namespace tas {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// sum/count instead of the Welford running mean: integer-valued samples
// (every latency is whole nanoseconds) sum exactly in any order, so merged
// stats report the same mean as one accumulator fed every sample. The
// Welford mean_ stays maintained for the variance recurrence.
double RunningStats::mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}
double RunningStats::min() const { return count_ == 0 ? 0 : min_; }
double RunningStats::max() const { return count_ == 0 ? 0 : max_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LatencyRecorder::LatencyRecorder(size_t max_samples) : max_samples_(max_samples) {
  TAS_CHECK(max_samples > 0);
}

void LatencyRecorder::Add(double x) {
  ++total_count_;
  sum_ += x;
  sorted_ = false;
  if (samples_.size() < max_samples_) {
    samples_.push_back(x);
    return;
  }
  // Vitter's algorithm R: replace a uniformly random existing slot.
  reservoir_seed_ = reservoir_seed_ * 6364136223846793005ull + 1442695040888963407ull;
  const uint64_t slot = (reservoir_seed_ >> 16) % total_count_;
  if (slot < max_samples_) {
    samples_[slot] = x;
  }
}

void LatencyRecorder::Clear() {
  total_count_ = 0;
  sum_ = 0;
  samples_.clear();
  sorted_ = false;
}

double LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) {
    return 0;
  }
  TAS_CHECK(p >= 0 && p <= 100);
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1 - frac) + samples_[hi] * frac;
}

double LatencyRecorder::Mean() const {
  return total_count_ == 0 ? 0 : sum_ / static_cast<double>(total_count_);
}

double LatencyRecorder::Max() const { return Percentile(100); }

std::vector<std::pair<double, double>> LatencyRecorder::Cdf(size_t max_points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty()) {
    return out;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const size_t n = samples_.size();
  const size_t step = std::max<size_t>(1, n / max_points);
  out.reserve((n + step - 1) / step + 1);  // Every sampled point, plus the final 1.0.
  for (size_t i = 0; i < n; i += step) {
    out.emplace_back(samples_[i], static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (out.back().second < 1.0) {
    out.emplace_back(samples_.back(), 1.0);
  }
  return out;
}

LogHistogram::LogHistogram() = default;

void LogHistogram::Add(uint64_t value) {
  const int bucket = value == 0 ? 0 : 64 - std::countl_zero(value);
  buckets_[std::min(bucket, kBuckets - 1)]++;
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

LogHistogram LogHistogram::DiffSince(const LogHistogram& earlier) const {
  LogHistogram out;
  for (int i = 0; i < kBuckets; ++i) {
    // Clamped: a shrunken bucket means `earlier` came from a different (or
    // reset) histogram; treat it as an empty window rather than wrapping.
    out.buckets_[i] =
        buckets_[i] >= earlier.buckets_[i] ? buckets_[i] - earlier.buckets_[i] : 0;
    out.count_ += out.buckets_[i];
  }
  return out;
}

uint64_t LogHistogram::ApproxPercentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  // Target at least one sample: p=0 must land on the first NON-EMPTY bucket
  // (a target of 0 would stop at bucket 0 even when it holds nothing and
  // report 0 for a histogram whose smallest sample is large).
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i];
    if (cum >= target) {
      return i == 0 ? 0 : (1ull << i) - 1;
    }
  }
  return ~0ull;
}

double RateCounter::Rate(TimeNs now) const {
  const TimeNs elapsed = now - start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(count_) / ToSec(elapsed);
}

double RateCounter::BitRate(TimeNs now) const {
  const TimeNs elapsed = now - start_;
  if (elapsed <= 0) {
    return 0;
  }
  return static_cast<double>(bytes_) * 8.0 / ToSec(elapsed);
}

}  // namespace tas
