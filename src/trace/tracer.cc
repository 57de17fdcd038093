#include "src/trace/tracer.h"

#include <cstdio>
#include <fstream>

#include "src/util/logging.h"

namespace tas {
namespace {

// Chrome trace-event timestamps are microseconds; keep nanosecond precision
// with three decimals. Fixed-format so output is byte-stable across runs.
std::string TsUs(TimeNs t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  return buf;
}

constexpr int kPid = 1;
// Flow tracks sit far above any simulated core id.
constexpr uint64_t kFlowTrackBase = 1u << 20;

}  // namespace

Tracer::Tracer(Simulator* sim, const TraceConfig& config)
    : config_(config),
      flow_events_(config.flow_event_capacity),
      sampler_(sim),
      spans_(config.span_capacity),
      context_(&sim->context()) {
  owns_latency_ = config.latency_stages && context_->EnableLatency();
  owns_causal_ = config.causal && context_->EnableCausal(config.causal_trace_capacity);
  flow_events_.SetGlobal(config.flow_events);
  spans_.SetEnabled(config.cpu_spans);
  if (config.causal) {
    // Pre-register one track per retained exemplar slot so the slowest trace
    // trees land on stable, named Perfetto tracks.
    exemplar_tracks_.reserve(kNumRequestClasses * CausalTracer::kExemplarsPerClass);
    for (int cls = 0; cls < kNumRequestClasses; ++cls) {
      for (size_t i = 0; i < CausalTracer::kExemplarsPerClass; ++i) {
        exemplar_tracks_.push_back(spans_.RegisterTrack(
            "critpath-" + std::string(RequestClassName(static_cast<RequestClass>(cls))) + "-" +
            std::to_string(i)));
      }
    }
  }
}

void Tracer::WritePerfettoJson(std::ostream& os) const {
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
     << ",\"args\":{\"name\":\"tas\"}}";

  for (const auto& [track, name] : spans_.track_names()) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid << ",\"tid\":" << track
       << ",\"args\":{\"name\":";
    JsonEscape(name, os);
    os << "}}";
  }

  // CPU busy spans as complete ("X") events.
  for (const TraceSpan& span : spans_.spans()) {
    sep();
    os << "{\"name\":\"" << span.name << "\",\"cat\":\"cpu\",\"ph\":\"X\",\"ts\":"
       << TsUs(span.start) << ",\"dur\":" << TsUs(span.end - span.start)
       << ",\"pid\":" << kPid << ",\"tid\":" << span.track << "}";
  }

  // Flow events as instant ("i") events, one synthetic track per flow.
  std::vector<uint64_t> named_flows;
  for (const FlowEvent& e : flow_events_.Events()) {
    const uint64_t track = kFlowTrackBase + e.flow;
    bool seen = false;
    for (uint64_t f : named_flows) {
      if (f == e.flow) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      named_flows.push_back(e.flow);
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid << ",\"tid\":" << track
         << ",\"args\":{\"name\":\"flow-" << e.flow << "\"}}";
    }
    sep();
    os << "{\"name\":\"" << FlowEventTypeName(e.type)
       << "\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(e.t)
       << ",\"pid\":" << kPid << ",\"tid\":" << track << ",\"args\":{\"flow\":" << e.flow;
    const char* an;
    const char* bn;
    const char* cn;
    FlowEventArgNames(e.type, &an, &bn, &cn);
    if (an[0] != '\0') {
      os << ",\"" << an << "\":" << e.a;
    }
    if (bn[0] != '\0') {
      os << ",\"" << bn << "\":" << e.b;
    }
    if (cn[0] != '\0') {
      os << ",\"" << cn << "\":" << e.c;
    }
    os << "}}";
  }

  // Loss-recovery flow arrows: pair each retransmit with the first ACK that
  // moves snd_una afterwards and draw an "s" -> "t" arrow across the
  // recovery window (plus an "X" slice so the arrow endpoints have a slice
  // to bind to). Only the FIRST unrecovered retransmit per flow is kept —
  // later retransmits of the same loss episode extend the same window.
  {
    std::map<uint64_t, TimeNs> pending_retx;  // flow -> retransmit time.
    uint64_t arrow_id = 1;
    for (const FlowEvent& e : flow_events_.Events()) {
      if (e.type == FlowEventType::kFastRetransmit ||
          e.type == FlowEventType::kTimeoutRetransmit) {
        pending_retx.emplace(e.flow, e.t);  // First retx of the episode wins.
        continue;
      }
      if (e.type != FlowEventType::kAckRx || e.b == 0) {
        continue;
      }
      auto it = pending_retx.find(e.flow);
      if (it == pending_retx.end()) {
        continue;
      }
      const TimeNs start = it->second;
      pending_retx.erase(it);
      const uint64_t track = kFlowTrackBase + e.flow;
      sep();
      os << "{\"name\":\"loss_recovery\",\"cat\":\"recovery\",\"ph\":\"X\",\"ts\":"
         << TsUs(start) << ",\"dur\":" << TsUs(e.t - start) << ",\"pid\":" << kPid
         << ",\"tid\":" << track << "}";
      sep();
      os << "{\"name\":\"retx_recovery\",\"cat\":\"recovery\",\"ph\":\"s\",\"id\":" << arrow_id
         << ",\"ts\":" << TsUs(start) << ",\"pid\":" << kPid << ",\"tid\":" << track << "}";
      sep();
      os << "{\"name\":\"retx_recovery\",\"cat\":\"recovery\",\"ph\":\"t\",\"id\":" << arrow_id
         << ",\"ts\":" << TsUs(e.t) << ",\"pid\":" << kPid << ",\"tid\":" << track << "}";
      ++arrow_id;
    }
  }

  // Exemplar trace trees (slowest requests per class) as nested "X" slices
  // on their pre-registered tracks, with cross-trace coalescing links drawn
  // as flow arrows when both endpoints were exported.
  if (owns_causal_ && !exemplar_tracks_.empty()) {
    std::map<uint64_t, size_t> exported;  // trace id -> exemplar track index.
    for (int cls = 0; cls < kNumRequestClasses; ++cls) {
      const auto& exs = causal().exemplars(static_cast<RequestClass>(cls));
      for (size_t i = 0; i < exs.size(); ++i) {
        const size_t slot = static_cast<size_t>(cls) * CausalTracer::kExemplarsPerClass + i;
        exported.emplace(exs[i].trace_id, slot);
        const int track = exemplar_tracks_[slot];
        for (const CausalSpan& span : exs[i].spans) {
          // A span that was never closed (its tier died) renders to the
          // trace end so the hole is visible rather than zero-width.
          const TimeNs end = span.end != 0 ? span.end : exs[i].end;
          sep();
          os << "{\"name\":\"" << CausalSpanKindName(span.kind)
             << "\",\"cat\":\"critpath\",\"ph\":\"X\",\"ts\":" << TsUs(span.start)
             << ",\"dur\":" << TsUs(end - span.start) << ",\"pid\":" << kPid
             << ",\"tid\":" << track << ",\"args\":{\"trace\":" << exs[i].trace_id
             << ",\"span\":" << span.id << ",\"object\":" << span.object_id
             << ",\"request\":" << span.request_id << (span.end == 0 ? ",\"open\":1" : "")
             << "}}";
        }
        for (const CausalMark& mark : exs[i].marks) {
          sep();
          os << "{\"name\":\"" << CausalEdgeName(mark.edge)
             << "\",\"cat\":\"critpath\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(mark.t)
             << ",\"pid\":" << kPid << ",\"tid\":" << track << "}";
        }
      }
    }
    uint64_t link_id = 1u << 20;  // Distinct id space from the retx arrows.
    for (const auto& [trace_id, slot] : exported) {
      const auto& exs =
          causal().exemplars(static_cast<RequestClass>(slot / CausalTracer::kExemplarsPerClass));
      const TraceExemplar& ex = exs[slot % CausalTracer::kExemplarsPerClass];
      for (const CausalLink& link : ex.links) {
        auto from = exported.find(link.from_trace);
        if (from == exported.end()) {
          continue;  // Primary's trace was not retained; no arrow.
        }
        // The arrow fires when the primary fetch landed = the moment the
        // waiter's coalesce_wait edge ended. Find that mark on the waiter.
        TimeNs when = ex.end;
        for (const CausalMark& mark : ex.marks) {
          if (mark.edge == CausalEdge::kCoalesceWait) {
            when = mark.t;
            break;
          }
        }
        sep();
        os << "{\"name\":\"coalesced_from\",\"cat\":\"critpath\",\"ph\":\"s\",\"id\":" << link_id
           << ",\"ts\":" << TsUs(when) << ",\"pid\":" << kPid
           << ",\"tid\":" << exemplar_tracks_[from->second] << "}";
        sep();
        os << "{\"name\":\"coalesced_from\",\"cat\":\"critpath\",\"ph\":\"t\",\"id\":" << link_id
           << ",\"ts\":" << TsUs(when) << ",\"pid\":" << kPid
           << ",\"tid\":" << exemplar_tracks_[slot] << "}";
        ++link_id;
      }
    }
  }

  // Time series as counter ("C") tracks.
  for (const auto& series : sampler_.series()) {
    for (const auto& [t, v] : series->points()) {
      sep();
      os << "{\"name\":";
      JsonEscape(series->name(), os);
      os << ",\"ph\":\"C\",\"ts\":" << TsUs(t) << ",\"pid\":" << kPid
         << ",\"args\":{\"value\":" << JsonNumber(v) << "}}";
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::WriteAll(const std::string& prefix) const {
  struct Out {
    const char* suffix;
    void (Tracer::*write)(std::ostream&) const;
  };
  const Out outs[] = {
      {".metrics.jsonl", &Tracer::WriteMetricsJsonl},
      {".flow_events.jsonl", &Tracer::WriteFlowEventsJsonl},
      {".timeseries.jsonl", &Tracer::WriteTimeSeriesJsonl},
      {".perfetto.json", &Tracer::WritePerfettoJson},
  };
  for (const Out& out : outs) {
    std::ofstream os(prefix + out.suffix);
    if (!os) {
      return false;
    }
    (this->*out.write)(os);
  }
  if (owns_latency_) {
    std::ofstream os(prefix + ".latency.json");
    if (!os) {
      return false;
    }
    os << latency().Report().ToJson() << "\n";
  }
  if (owns_causal_) {
    std::ofstream os(prefix + ".critical_path.json");
    if (!os) {
      return false;
    }
    os << causal().Report().ToJson() << "\n";
  }
  // A wrapped ring means the files above silently miss the oldest records —
  // say so once per export instead of letting a reader chase ghosts.
  const uint64_t lost = lost_records();
  if (spans_.dropped() > 0 || lost > 0) {
    TAS_LOG_WARN << "trace export truncated: " << spans_.dropped() << " spans dropped, "
                 << lost
                 << " records overwritten (raise the trace ring capacities to keep them)";
  }
  return true;
}

uint64_t Tracer::lost_records() const {
  return flow_events_.overwritten() + (owns_latency_ ? latency().overwritten() : 0) +
         (owns_causal_ ? causal().dropped() : 0);
}

void RegisterSimulatorMetrics(MetricRegistry* registry, const Simulator* sim,
                              const std::string& prefix) {
  registry->AddCounterFn(prefix + ".events_executed", [sim] { return sim->events_executed(); });
  registry->AddGauge(prefix + ".pending_events",
                     [sim] { return static_cast<double>(sim->pending_events()); });
  registry->AddGauge(prefix + ".max_pending_events",
                     [sim] { return static_cast<double>(sim->max_pending_events()); });
  // Queue-structure cost: window refills and the entries they relinked.
  registry->AddCounterFn(prefix + ".queue.refills", [sim] { return sim->refills(); });
  registry->AddCounterFn(prefix + ".queue.moved", [sim] { return sim->entries_moved(); });
  // Allocator-pressure view (DESIGN.md §8): cancellation traffic and event
  // slab occupancy, so Perfetto traces show hot-path memory discipline.
  registry->AddCounterFn(prefix + ".cancelled_events",
                         [sim] { return sim->cancelled_events(); });
  registry->AddCounterFn(prefix + ".cancelled_popped",
                         [sim] { return sim->cancelled_popped(); });
  registry->AddGauge(prefix + ".event_nodes_total",
                     [sim] { return static_cast<double>(sim->event_nodes_total()); });
  registry->AddGauge(prefix + ".event_nodes_free",
                     [sim] { return static_cast<double>(sim->event_nodes_free()); });
}

}  // namespace tas
