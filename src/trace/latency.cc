#include "src/trace/latency.h"

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

LatencyTracer::LatencyTracer(size_t ring_capacity) : ring_(ring_capacity) {}

uint64_t LatencyTracer::Begin(TimeNs start) {
  // A full ring overwrites the oldest record; if that one never finished,
  // the ring counts it, and its late stamps fail the id check (stale).
  ring_.Append() = Record{start, start, 0, {}};
  return ring_.last_id();
}

LatencyTracer::Record* LatencyTracer::Live(uint64_t id) {
  Record* r = ring_.Find(id);
  if (r == nullptr) {
    ++stale_;
  }
  return r;
}

void LatencyTracer::Stamp(uint64_t id, LatencyStage stage, TimeNs now) {
  if (id == 0) {
    return;
  }
  Record* r = Live(id);
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
  Record* r = Live(id);
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
  ring_.Retire(id);

  if (recorder_ != nullptr) {
    recorder_->RecordLatency(now, e2e, queue_ns, service_ns);
  }
}

void LatencyTracer::Abandon(uint64_t id) {
  // Dropping a dead record twice is not an error.
  if (ring_.Retire(id)) {
    ++abandoned_;
  }
}

void LatencyTracer::Clear() {
  // Keeps the ring's storage (if any) for the next run's records.
  RecordRing<Record> ring = std::move(ring_);
  ring.Clear();
  *this = LatencyTracer(ring.capacity());
  ring_ = std::move(ring);
}

LatencyReport LatencyTracer::Report() const {
  LatencyReport report;
  report.completed = completed();
  report.abandoned = abandoned();
  report.overwritten = overwritten();
  report.stale = stale();
  for (int i = 0; i < kNumLatencyStages; ++i) {
    const LatencyStage stage = static_cast<LatencyStage>(i);
    report.stages.push_back(SummarizeRow(LatencyStageName(stage),
                                         LatencyStageIsQueue(stage) ? "queue" : "service",
                                         stage_hist(stage), stage_stats(stage)));
  }
  report.stages.push_back(SummarizeRow("queue_wait", "total", queue_wait_hist_,
                                       queue_wait_stats_));
  report.stages.push_back(SummarizeRow("service", "total", service_hist_, service_stats_));
  report.stages.push_back(SummarizeRow("e2e", "total", e2e_hist(), e2e_stats()));
  return report;
}

std::string LatencyReport::ToJson() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "{\"report\":\"latency\""
     << ",\"completed\":" << completed << ",\"abandoned\":" << abandoned
     << ",\"overwritten\":" << overwritten << ",\"stale\":" << stale << ",\"stages\":[";
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    WriteRowJson(os, stages[i], "stage", /*with_share=*/false);
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
    os << std::left << std::setw(14) << s.name << std::setw(9) << s.cls << std::right
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

}  // namespace tas
