#include "src/trace/latency.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "src/trace/flight_recorder.h"
#include "src/util/logging.h"

namespace tas {

const char* LatencyStageName(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kCtxQueue:
      return "ctx_queue";
    case LatencyStage::kFpTx:
      return "fp_tx";
    case LatencyStage::kLinkQueue:
      return "link_queue";
    case LatencyStage::kLinkWire:
      return "link_wire";
    case LatencyStage::kSwitchQueue:
      return "switch_queue";
    case LatencyStage::kNicRxRing:
      return "nic_rx_ring";
    case LatencyStage::kFpRx:
      return "fp_rx";
  }
  return "?";
}

bool LatencyStageIsQueue(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kCtxQueue:
    case LatencyStage::kLinkQueue:
    case LatencyStage::kSwitchQueue:
    case LatencyStage::kNicRxRing:
      return true;
    case LatencyStage::kFpTx:
    case LatencyStage::kLinkWire:
    case LatencyStage::kFpRx:
      return false;
  }
  return false;
}

LatencyTracer::LatencyTracer(size_t ring_capacity) {
  size_t cap = 1;
  while (cap < ring_capacity) {
    cap <<= 1;
  }
  mask_ = cap - 1;
}

uint64_t LatencyTracer::Begin(TimeNs start) {
  if (ring_.empty()) {
    ring_.resize(mask_ + 1);
  }
  const uint64_t id = next_id_++;
  Record& r = ring_[id & mask_];
  if (r.id != 0) {
    // Ring wrapped onto a record that never finished: the oldest in-flight
    // record is dropped; its late stamps will fail the id check (stale).
    ++overwritten_;
  }
  r.id = id;
  r.start = start;
  r.last = start;
  r.touched = 0;
  r.stage_ns.fill(0);
  return id;
}

LatencyTracer::Record* LatencyTracer::Slot(uint64_t id) {
  if (ring_.empty() || ring_[id & mask_].id != id) {
    ++stale_;
    return nullptr;
  }
  return &ring_[id & mask_];
}

void LatencyTracer::Stamp(uint64_t id, LatencyStage stage, TimeNs now) {
  if (id == 0) {
    return;
  }
  Record* r = Slot(id);
  if (r == nullptr) {
    return;
  }
  const size_t i = static_cast<size_t>(stage);
  r->stage_ns[i] += static_cast<uint64_t>(now - r->last);
  r->last = now;
  r->touched |= 1u << i;
}

void LatencyTracer::Finish(uint64_t id, LatencyStage stage, TimeNs now) {
  if (id == 0) {
    return;
  }
  Record* r = Slot(id);
  if (r == nullptr) {
    return;
  }
  const size_t fi = static_cast<size_t>(stage);
  r->stage_ns[fi] += static_cast<uint64_t>(now - r->last);
  r->touched |= 1u << fi;

  uint64_t total = 0;
  uint64_t queue_ns = 0;
  uint64_t service_ns = 0;
  for (int i = 0; i < kNumLatencyStages; ++i) {
    if ((r->touched & (1u << i)) == 0) {
      continue;
    }
    const uint64_t ns = r->stage_ns[static_cast<size_t>(i)];
    stage_hist_[static_cast<size_t>(i)].Add(ns);
    stage_stats_[static_cast<size_t>(i)].Add(static_cast<double>(ns));
    total += ns;
    if (LatencyStageIsQueue(static_cast<LatencyStage>(i))) {
      queue_ns += ns;
    } else {
      service_ns += ns;
    }
  }
  const uint64_t e2e = static_cast<uint64_t>(now - r->start);
  if (total != e2e) {
    // Every interval between Begin and Finish must be attributed to exactly
    // one stage; a mismatch means a stamp site double-charged or skipped.
    ++partition_mismatches_;
  }
  e2e_hist_.Add(e2e);
  e2e_stats_.Add(static_cast<double>(e2e));
  queue_wait_hist_.Add(queue_ns);
  queue_wait_stats_.Add(static_cast<double>(queue_ns));
  service_hist_.Add(service_ns);
  service_stats_.Add(static_cast<double>(service_ns));
  ++completed_;
  r->id = 0;

  if (recorder_ != nullptr) {
    recorder_->RecordLatency(now, e2e, queue_ns, service_ns);
  }
}

void LatencyTracer::Abandon(uint64_t id) {
  if (id == 0) {
    return;
  }
  if (ring_.empty() || ring_[id & mask_].id != id) {
    return;  // Already gone; dropping a dead record twice is not an error.
  }
  ring_[id & mask_].id = 0;
  ++abandoned_;
}

void LatencyTracer::Clear() {
  // Keeps the ring's storage (if any) for the next run's records.
  std::vector<Record> ring = std::move(ring_);
  std::fill(ring.begin(), ring.end(), Record{});
  *this = LatencyTracer(mask_ + 1);
  ring_ = std::move(ring);
}

namespace {

LatencyStageSummary Summarize(const std::string& name, const std::string& cls,
                              const LogHistogram& hist, const RunningStats& stats) {
  LatencyStageSummary s;
  s.stage = name;
  s.cls = cls;
  s.count = stats.count();
  s.mean_ns = stats.mean();
  s.max_ns = stats.max();
  s.p50_ns = hist.ApproxPercentile(50);
  s.p90_ns = hist.ApproxPercentile(90);
  s.p99_ns = hist.ApproxPercentile(99);
  s.p999_ns = hist.ApproxPercentile(99.9);
  return s;
}

}  // namespace

LatencyReport LatencyTracer::Report() const {
  LatencyReport report;
  report.completed = completed();
  report.abandoned = abandoned();
  report.overwritten = overwritten();
  report.stale = stale();
  for (int i = 0; i < kNumLatencyStages; ++i) {
    const LatencyStage stage = static_cast<LatencyStage>(i);
    report.stages.push_back(Summarize(LatencyStageName(stage),
                                      LatencyStageIsQueue(stage) ? "queue" : "service",
                                      stage_hist(stage), stage_stats(stage)));
  }
  report.stages.push_back(Summarize("queue_wait", "total", queue_wait_hist_,
                                    queue_wait_stats_));
  report.stages.push_back(Summarize("service", "total", service_hist_, service_stats_));
  report.stages.push_back(Summarize("e2e", "total", e2e_hist(), e2e_stats()));
  return report;
}

const LatencyStageSummary* LatencyReport::Find(const std::string& stage) const {
  for (const LatencyStageSummary& s : stages) {
    if (s.stage == stage) {
      return &s;
    }
  }
  return nullptr;
}

std::string LatencyReport::ToJson() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "{\"report\":\"latency\""
     << ",\"completed\":" << completed << ",\"abandoned\":" << abandoned
     << ",\"overwritten\":" << overwritten << ",\"stale\":" << stale << ",\"stages\":[";
  for (size_t i = 0; i < stages.size(); ++i) {
    const LatencyStageSummary& s = stages[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"stage\":\"" << s.stage << "\",\"class\":\"" << s.cls << "\""
       << ",\"count\":" << s.count << ",\"mean_ns\":" << s.mean_ns
       << ",\"max_ns\":" << s.max_ns << ",\"p50_ns\":" << s.p50_ns
       << ",\"p90_ns\":" << s.p90_ns << ",\"p99_ns\":" << s.p99_ns
       << ",\"p999_ns\":" << s.p999_ns << "}";
  }
  os << "]}";
  return os.str();
}

std::string LatencyReport::ToTable() const {
  std::ostringstream os;
  os << std::left << std::setw(14) << "stage" << std::setw(9) << "class" << std::right
     << std::setw(10) << "count" << std::setw(12) << "mean_us" << std::setw(10) << "p50_us"
     << std::setw(10) << "p90_us" << std::setw(10) << "p99_us" << std::setw(11)
     << "p99.9_us" << std::setw(11) << "max_us" << "\n";
  os << std::string(97, '-') << "\n";
  os << std::fixed;
  for (const LatencyStageSummary& s : stages) {
    os << std::left << std::setw(14) << s.stage << std::setw(9) << s.cls << std::right
       << std::setw(10) << s.count << std::setw(12) << std::setprecision(2)
       << s.mean_ns / 1000.0 << std::setw(10) << std::setprecision(2)
       << static_cast<double>(s.p50_ns) / 1000.0 << std::setw(10)
       << static_cast<double>(s.p90_ns) / 1000.0 << std::setw(10)
       << static_cast<double>(s.p99_ns) / 1000.0 << std::setw(11)
       << static_cast<double>(s.p999_ns) / 1000.0 << std::setw(11)
       << s.max_ns / 1000.0 << "\n";
  }
  return os.str();
}

namespace {

// Minimal scanner for the exact flat shape ToJson emits. Finds `"key":` in
// text[from, to) and returns the index just past the colon, or npos.
size_t FindValue(const std::string& text, size_t from, size_t to, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos || pos >= to) {
    return std::string::npos;
  }
  return pos + needle.size();
}

double NumberAt(const std::string& text, size_t from, size_t to, const std::string& key,
                bool* ok) {
  const size_t pos = FindValue(text, from, to, key);
  if (pos == std::string::npos) {
    *ok = false;
    return 0;
  }
  return std::strtod(text.c_str() + pos, nullptr);
}

std::string StringAt(const std::string& text, size_t from, size_t to,
                     const std::string& key, bool* ok) {
  size_t pos = FindValue(text, from, to, key);
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    *ok = false;
    return "";
  }
  ++pos;
  const size_t end = text.find('"', pos);
  if (end == std::string::npos || end > to) {
    *ok = false;
    return "";
  }
  return text.substr(pos, end - pos);
}

}  // namespace

LatencyReport ParseLatencyReportJson(const std::string& json, bool* ok) {
  bool good = true;
  LatencyReport report;
  const size_t stages_pos = json.find("\"stages\":[");
  if (stages_pos == std::string::npos) {
    if (ok != nullptr) {
      *ok = false;
    }
    return LatencyReport{};
  }
  report.completed =
      static_cast<uint64_t>(NumberAt(json, 0, stages_pos, "completed", &good));
  report.abandoned =
      static_cast<uint64_t>(NumberAt(json, 0, stages_pos, "abandoned", &good));
  report.overwritten =
      static_cast<uint64_t>(NumberAt(json, 0, stages_pos, "overwritten", &good));
  report.stale = static_cast<uint64_t>(NumberAt(json, 0, stages_pos, "stale", &good));

  // Stage objects are flat (no nested braces): walk { ... } pairs.
  size_t pos = stages_pos + 10;
  while (good) {
    const size_t open = json.find('{', pos);
    const size_t close = json.find('}', open);
    if (open == std::string::npos || close == std::string::npos) {
      break;
    }
    // Stop at the array's closing bracket.
    const size_t bracket = json.find(']', pos);
    if (bracket != std::string::npos && bracket < open) {
      break;
    }
    LatencyStageSummary s;
    s.stage = StringAt(json, open, close, "stage", &good);
    s.cls = StringAt(json, open, close, "class", &good);
    s.count = static_cast<uint64_t>(NumberAt(json, open, close, "count", &good));
    s.mean_ns = NumberAt(json, open, close, "mean_ns", &good);
    s.max_ns = NumberAt(json, open, close, "max_ns", &good);
    s.p50_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p50_ns", &good));
    s.p90_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p90_ns", &good));
    s.p99_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p99_ns", &good));
    s.p999_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p999_ns", &good));
    if (good) {
      report.stages.push_back(std::move(s));
    }
    pos = close + 1;
  }
  if (report.stages.empty()) {
    good = false;
  }
  if (ok != nullptr) {
    *ok = good;
  }
  return good ? report : LatencyReport{};
}

std::vector<LatencyRegression> CompareLatencyReports(const LatencyReport& baseline,
                                                     const LatencyReport& current,
                                                     double tolerance,
                                                     uint64_t min_count) {
  std::vector<LatencyRegression> violations;
  const auto check = [&](const LatencyStageSummary& base, const LatencyStageSummary* cur,
                         const char* metric, double base_v, double cur_v) {
    if (cur == nullptr || base_v <= 0) {
      return;
    }
    if (cur_v > base_v * (1.0 + tolerance)) {
      violations.push_back(LatencyRegression{base.stage, metric, base_v, cur_v,
                                             cur_v / base_v});
    }
  };
  for (const LatencyStageSummary& base : baseline.stages) {
    if (base.count < min_count) {
      continue;  // Too few samples to gate on.
    }
    const LatencyStageSummary* cur = current.Find(base.stage);
    check(base, cur, "mean_ns", base.mean_ns,
          cur != nullptr ? cur->mean_ns : 0);
    check(base, cur, "p99_ns", static_cast<double>(base.p99_ns),
          cur != nullptr ? static_cast<double>(cur->p99_ns) : 0);
  }
  return violations;
}

}  // namespace tas
