// Tracer: the per-host observability bundle — a MetricRegistry every
// subsystem registers into, a FlowTracer for per-flow protocol events, a
// TimeSeriesSampler for plot-ready series, and a SpanRecorder for CPU busy
// intervals — plus the exporters: JSONL dumps for metrics / flow events /
// time series, and a Chrome trace-event JSON (load in https://ui.perfetto.dev
// or chrome://tracing) that renders fast-path core busy spans, slow-path
// control iterations, per-flow event tracks, and time-series counter tracks
// on one timeline.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/context.h"
#include "src/sim/simulator.h"
#include "src/trace/causal.h"
#include "src/trace/flow_tracer.h"
#include "src/trace/latency.h"
#include "src/trace/metric_registry.h"
#include "src/trace/record_ring.h"
#include "src/trace/timeseries.h"

namespace tas {

// Knobs carried by TasConfig::trace (and usable standalone). Everything is
// off by default; a default-constructed Tracer costs one branch per
// instrumentation site. Ring capacities are rounded up to a power of two, and
// full rings keep their newest records (record_ring.h).
struct TraceConfig {
  // Per-flow protocol events for ALL flows (FlowTracer::EnableFlow opts in
  // individual flows when this is false).
  bool flow_events = false;
  size_t flow_event_capacity = 1u << 16;
  // CPU busy spans (per-core Charge intervals + slow-path control loops).
  bool cpu_spans = false;
  size_t span_capacity = 1u << 16;
  // Periodic sampling of registered probes; 0 disables the sweep task.
  TimeNs sample_period = 0;
  // Also sample per-flow cc rate/window, bytes in flight, and buffer
  // occupancy into one series per live flow (needs sample_period > 0).
  bool sample_flows = false;
  // Per-packet latency anatomy (src/trace/latency): stage stamps in a side
  // ring, folded into per-stage histograms. Packet journeys cross hosts, so
  // the experiment has one LatencyTracer (src/sim/context.h); the first
  // Tracer built with this on enables it and reports it.
  bool latency_stages = false;
  // Request-level causal tracing (src/trace/causal, DESIGN.md §12), one
  // CausalTracer per experiment, enabled and reported the same way.
  bool causal = false;
  size_t causal_trace_capacity = 1u << 13;
};

// One contiguous busy interval on a track (track = simulated core id, or a
// synthetic id for logical tracks like the slow-path control loop).
struct TraceSpan {
  int track = 0;
  const char* name = "";  // Must point at static storage.
  TimeNs start = 0;
  TimeNs end = 0;
};

// CPU busy spans in a RecordRing (record_ring.h): a full recorder
// overwrites its oldest span, so it keeps the newest window, like every other
// trace ring, and a Perfetto export shows spans and flow events from the same
// stretch of time. dropped() counts the overwritten spans.
class SpanRecorder {
 public:
  // Synthetic tracks (request spans, exemplar trace trees, ...) are numbered
  // from here; simulated core ids and the slow-path control track sit below,
  // so registered tracks never collide with them.
  static constexpr int kFirstTrack = 2000;

  // `capacity` is rounded up to a power of two.
  explicit SpanRecorder(size_t capacity = 1u << 16) : ring_(capacity) {}

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(int track, const char* name, TimeNs start, TimeNs end) {
    if (!enabled_) {
      return;
    }
    ring_.Append() = TraceSpan{track, name, start, end};
  }

  // Human-readable track label for the Perfetto thread-name metadata (static
  // tracks: core ids, the slow-path control loop).
  void SetTrackName(int track, std::string name) { track_names_[track] = std::move(name); }

  // Allocates a fresh synthetic track and names it. Use instead of a
  // hardcoded track constant so logical tracks cannot collide.
  int RegisterTrack(std::string name) {
    const int track = next_track_++;
    track_names_[track] = std::move(name);
    return track;
  }

  // Retained spans, oldest first.
  std::vector<TraceSpan> spans() const { return ring_.Snapshot(); }
  // Every track name; registered tracks get thread-name metadata in the
  // Perfetto export.
  const std::map<int, std::string>& track_names() const { return track_names_; }
  uint64_t dropped() const { return ring_.evicted(); }
  void Clear() { ring_.Clear(); }

 private:
  bool enabled_ = false;
  RecordRing<TraceSpan> ring_;
  int next_track_ = kFirstTrack;
  std::map<int, std::string> track_names_;  // Ordered for deterministic export.
};

class Tracer {
 public:
  explicit Tracer(Simulator* sim, const TraceConfig& config = TraceConfig{});

  const TraceConfig& config() const { return config_; }
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  FlowTracer& flow_events() { return flow_events_; }
  const FlowTracer& flow_events() const { return flow_events_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  // The experiment's tracers, shared by every host; only the host that
  // enabled one first reports it (metrics, exports).
  LatencyTracer& latency() { return context_->latency(); }
  const LatencyTracer& latency() const { return context_->latency(); }
  CausalTracer& causal() { return context_->causal(); }
  const CausalTracer& causal() const { return context_->causal(); }
  bool owns_latency() const { return owns_latency_; }
  bool owns_causal() const { return owns_causal_; }
  // Records this host's exports lost to a wrapped ring.
  uint64_t lost_records() const;

  // --- Exporters ------------------------------------------------------------
  void WriteMetricsJsonl(std::ostream& os) const { metrics_.WriteJsonl(os); }
  void WriteFlowEventsJsonl(std::ostream& os) const { flow_events_.WriteJsonl(os); }
  void WriteTimeSeriesJsonl(std::ostream& os) const { sampler_.WriteJsonl(os); }
  // Chrome trace-event format: CPU spans as complete events ("ph":"X"),
  // flow events as instants on per-flow tracks, time series as counters.
  void WritePerfettoJson(std::ostream& os) const;

  // Writes <prefix>.metrics.jsonl, <prefix>.flow_events.jsonl,
  // <prefix>.timeseries.jsonl and <prefix>.perfetto.json — plus
  // <prefix>.latency.json / <prefix>.critical_path.json when this host
  // owns the latency / causal tracer. Warns (TAS_LOG) when any
  // ring overflowed and the export is therefore truncated. Returns false if
  // any file could not be opened.
  bool WriteAll(const std::string& prefix) const;

 private:
  TraceConfig config_;
  MetricRegistry metrics_;
  FlowTracer flow_events_;
  TimeSeriesSampler sampler_;
  SpanRecorder spans_;
  ExperimentContext* context_;
  bool owns_latency_ = false;
  bool owns_causal_ = false;
  // Track ids for exemplar trace trees, indexed cls * kExemplarsPerClass + i.
  std::vector<int> exemplar_tracks_;
};

// Registers the simulator's dispatch metrics (events executed, pending
// events, pending high-water mark) under the "sim." prefix.
void RegisterSimulatorMetrics(MetricRegistry* registry, const Simulator* sim,
                              const std::string& prefix = "sim");

}  // namespace tas

#endif  // SRC_TRACE_TRACER_H_
