#include "src/trace/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/trace/metric_registry.h"
#include "src/util/logging.h"

namespace tas {
namespace {

// Mirrors tracer.cc: microsecond timestamps with fixed three-decimal
// nanosecond precision, so Perfetto output is byte-stable across runs.
std::string TsUs(TimeNs t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  return buf;
}

constexpr int kPid = 1;
// Recorder tracks sit above the flow tracks of the full-trace bundle
// (kFlowTrackBase = 1<<20 there); one track per stream, and the trigger's
// track just below them. Track ids are part of the bundle format and stay
// fixed, so offset 2 is unused.
constexpr uint64_t kRecorderTrackBase = 1u << 22;
constexpr uint64_t kTriggerTrack = kRecorderTrackBase - 1;

uint64_t StreamTrack(RecorderStream stream) {
  constexpr uint64_t kOffset[kNumRecorderStreams] = {0, 1, 3};  // By RecorderStream.
  return kRecorderTrackBase + kOffset[static_cast<size_t>(stream)];
}

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kE2eLatencyP99:
      return "e2e_latency_p99";
    case SloKind::kRetransmitRate:
      return "retransmit_rate";
    case SloKind::kSlowPathQueueDepth:
      return "slowpath_queue_depth";
    case SloKind::kFlowTableProbeP99:
      return "flow_table_probe_p99";
    case SloKind::kCoreImbalance:
      return "core_imbalance";
    case SloKind::kMetricValue:
      return "metric_value";
  }
  return "?";
}

const char* RecorderStreamName(RecorderStream stream) {
  switch (stream) {
    case RecorderStream::kFlow:
      return "flow";
    case RecorderStream::kLatency:
      return "latency";
    case RecorderStream::kSlo:
      return "slo";
  }
  return "?";
}

std::vector<SloSpec> DefaultSlos() {
  // Conservative: a healthy run (perf_smoke's clean RPC workload, the churn
  // bench's steady state) stays far below every threshold; CI hard-fails on
  // a false positive, so these err loose. Chaos/bench scenarios that want
  // sharp triggers set explicit specs.
  std::vector<SloSpec> slos;
  slos.push_back({"e2e_p99", SloKind::kE2eLatencyP99,
                  static_cast<double>(Ms(50)), 3, 64, ""});
  slos.push_back({"retransmit_rate", SloKind::kRetransmitRate, 1000.0, 3, 0, ""});
  slos.push_back({"slowpath_queue_depth", SloKind::kSlowPathQueueDepth, 128.0, 3, 0, ""});
  slos.push_back({"flow_table_probe_p99", SloKind::kFlowTableProbeP99, 64.0, 3, 64, ""});
  slos.push_back({"core_imbalance", SloKind::kCoreImbalance, 16.0, 3,
                  static_cast<uint64_t>(Us(100)), ""});
  return slos;
}

FlightRecorder::FlightRecorder(const WatchdogConfig& config) : config_(config) {
  // In RecorderStream order.
  for (size_t capacity :
       {config.flow_ring_capacity, config.latency_ring_capacity, kSloRingCapacity}) {
    streams_.emplace_back(capacity);
  }
}

void FlightRecorder::Append(RecorderStream stream, RecorderRecord rec) {
  rec.seq = next_seq_++;
  rec.stream = stream;
  streams_[static_cast<size_t>(stream)].Append() = rec;
}

void FlightRecorder::RecordFlowEvent(const FlowEvent& e) {
  RecorderRecord rec;
  rec.t = e.t;
  rec.type = static_cast<uint8_t>(e.type);
  rec.a = e.flow;
  rec.b = e.a;
  rec.c = e.b;
  rec.d = e.c;
  Append(RecorderStream::kFlow, rec);
}

void FlightRecorder::RecordLatency(TimeNs t, uint64_t e2e_ns, uint64_t queue_ns,
                                   uint64_t service_ns) {
  RecorderRecord rec;
  rec.t = t;
  rec.a = e2e_ns;
  rec.b = queue_ns;
  rec.c = service_ns;
  Append(RecorderStream::kLatency, rec);
}

void FlightRecorder::RecordSlo(TimeNs t, SloKind kind, double measured, bool breached) {
  RecorderRecord rec;
  rec.t = t;
  rec.type = static_cast<uint8_t>(kind);
  rec.a = breached ? 1 : 0;
  rec.v = measured;
  Append(RecorderStream::kSlo, rec);
}

std::vector<RecorderRecord> FlightRecorder::CaptureWindow(TimeNs from, TimeNs to) const {
  std::vector<RecorderRecord> out;
  for (const RecordRing<RecorderRecord>& ring : streams_) {
    ring.ForEach([&](const RecorderRecord& rec) {
      if (rec.t >= from && rec.t <= to) {
        out.push_back(rec);
      }
    });
  }
  std::sort(out.begin(), out.end(), [](const RecorderRecord& x, const RecorderRecord& y) {
    return x.t != y.t ? x.t < y.t : x.seq < y.seq;
  });
  return out;
}

uint64_t FlightRecorder::recorded(RecorderStream stream) const {
  return streams_[static_cast<size_t>(stream)].last_id();
}

uint64_t FlightRecorder::overwritten(RecorderStream stream) const {
  return streams_[static_cast<size_t>(stream)].evicted();
}

void FlightRecorder::Trigger(SloTrigger trigger, std::function<std::string()> context_json) {
  const bool write = !config_.bundle_prefix.empty() && bundles_written_ < kMaxBundles;
  trigger.bundle = write ? bundles_written_ : -1;
  if (write) {
    const std::vector<RecorderRecord> records =
        CaptureWindow(trigger.window_from, trigger.window_to);
    const std::string base =
        config_.bundle_prefix + ".bundle" + std::to_string(bundles_written_);
    {
      std::ofstream os(base + ".json");
      os << "{\"trigger\":" << SloTriggerToJson(trigger)
         << ",\"records\":" << records.size() << ",\"context\":"
         << (context_json ? context_json() : std::string("{}")) << "}\n";
    }
    {
      std::ofstream os(base + ".jsonl");
      WriteBundleJsonl(records, os);
    }
    {
      std::ofstream os(base + ".perfetto.json");
      WriteBundlePerfetto(trigger, records, os);
    }
    ++bundles_written_;
    TAS_LOG(INFO) << "watchdog breach '" << trigger.slo << "' at t=" << trigger.t
                  << "ns: wrote " << base << ".{json,jsonl,perfetto.json} ("
                  << records.size() << " records)";
  }
  triggers_.push_back(trigger);
}

void FlightRecorder::WriteBundleJsonl(const std::vector<RecorderRecord>& records,
                                      std::ostream& os) const {
  for (const RecorderRecord& rec : records) {
    os << "{\"t\":" << rec.t << ",\"seq\":" << rec.seq
       << ",\"stream\":\"" << RecorderStreamName(rec.stream) << '"';
    switch (rec.stream) {
      case RecorderStream::kFlow: {
        const auto type = static_cast<FlowEventType>(rec.type);
        os << ",\"type\":\"" << FlowEventTypeName(type) << "\",\"flow\":" << rec.a;
        const char* an;
        const char* bn;
        const char* cn;
        FlowEventArgNames(type, &an, &bn, &cn);
        if (an[0] != '\0') os << ",\"" << an << "\":" << rec.b;
        if (bn[0] != '\0') os << ",\"" << bn << "\":" << rec.c;
        if (cn[0] != '\0') os << ",\"" << cn << "\":" << rec.d;
        break;
      }
      case RecorderStream::kLatency:
        os << ",\"e2e_ns\":" << rec.a << ",\"queue_ns\":" << rec.b
           << ",\"service_ns\":" << rec.c;
        break;
      case RecorderStream::kSlo:
        os << ",\"slo\":\"" << SloKindName(static_cast<SloKind>(rec.type))
           << "\",\"measured\":" << JsonNumber(rec.v) << ",\"breached\":" << rec.a;
        break;
    }
    os << "}\n";
  }
}

void FlightRecorder::WriteBundlePerfetto(const SloTrigger& trigger,
                                         const std::vector<RecorderRecord>& records,
                                         std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      os << ",\n";
    }
    first = false;
  };
  sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
     << ",\"args\":{\"name\":\"flight-recorder\"}}";
  // Name one track per stream that actually has records.
  std::vector<uint64_t> named;
  for (const RecorderRecord& rec : records) {
    const uint64_t track = StreamTrack(rec.stream);
    if (std::find(named.begin(), named.end(), track) == named.end()) {
      named.push_back(track);
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
         << ",\"tid\":" << track << ",\"args\":{\"name\":\"recorder-"
         << RecorderStreamName(rec.stream) << "\"}}";
    }
  }
  // The evidence window as one span on the trigger's own track, so the
  // breach context frames everything else.
  sep();
  os << "{\"name\":\"" << trigger.slo << "\",\"cat\":\"slo\",\"ph\":\"X\",\"ts\":"
     << TsUs(trigger.window_from) << ",\"dur\":"
     << TsUs(trigger.window_to - trigger.window_from) << ",\"pid\":" << kPid
     << ",\"tid\":" << kTriggerTrack << ",\"args\":{\"measured\":"
     << JsonNumber(trigger.measured) << ",\"threshold\":" << JsonNumber(trigger.threshold)
     << "}}";
  sep();
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
     << ",\"tid\":" << kTriggerTrack << ",\"args\":{\"name\":\"slo-trigger\"}}";
  for (const RecorderRecord& rec : records) {
    const uint64_t track = StreamTrack(rec.stream);
    switch (rec.stream) {
      case RecorderStream::kFlow:
        sep();
        os << "{\"name\":\"" << FlowEventTypeName(static_cast<FlowEventType>(rec.type))
           << "\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(rec.t)
           << ",\"pid\":" << kPid << ",\"tid\":" << track << ",\"args\":{\"flow\":" << rec.a
           << "}}";
        break;
      case RecorderStream::kLatency:
        // Packet e2e latency as a counter track (µs).
        sep();
        os << "{\"name\":\"e2e_us\",\"cat\":\"latency\",\"ph\":\"C\",\"ts\":" << TsUs(rec.t)
           << ",\"pid\":" << kPid << ",\"tid\":" << track << ",\"args\":{\"e2e_us\":"
           << JsonNumber(static_cast<double>(rec.a) / 1000.0) << "}}";
        break;
      case RecorderStream::kSlo:
        sep();
        os << "{\"name\":\"" << SloKindName(static_cast<SloKind>(rec.type))
           << "\",\"cat\":\"slo\",\"ph\":\"C\",\"ts\":" << TsUs(rec.t)
           << ",\"pid\":" << kPid << ",\"tid\":" << track << ",\"args\":{\"measured\":"
           << JsonNumber(rec.v) << "}}";
        break;
    }
  }
  os << "\n]}\n";
}

std::string SloTriggerToJson(const SloTrigger& trigger) {
  std::ostringstream os;
  os << "{\"slo\":";
  JsonEscape(trigger.slo, os);
  os << ",\"kind\":\"" << SloKindName(trigger.kind) << "\",\"measured\":"
     << JsonNumber(trigger.measured) << ",\"threshold\":" << JsonNumber(trigger.threshold)
     << ",\"burn_windows\":" << trigger.burn_windows << ",\"t\":" << trigger.t
     << ",\"window_from\":" << trigger.window_from << ",\"window_to\":" << trigger.window_to
     << ",\"source\":";
  JsonEscape(trigger.source, os);
  os << ",\"bundle\":" << trigger.bundle << "}";
  return os.str();
}

}  // namespace tas
