// Tests for the unified tracing & metrics layer (src/trace) — the registry,
// flow-event tracer, time-series sampler, span recorder, exporters — and for
// the end-to-end wiring: a lossy TAS transfer must emit handshake,
// retransmit and cc-update events in order with monotone timestamps, produce
// syntactically valid Perfetto/JSONL output, and be byte-identical across
// two same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"
#include "src/trace/tracer.h"

namespace tas {
namespace {

// --- Minimal JSON syntax checker -------------------------------------------
// Validates structure (objects, arrays, strings, numbers, literals) without
// building a tree; enough to catch any malformed exporter output.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool Valid() {
    Ws();
    if (!Value()) {
      return false;
    }
    Ws();
    return p_ == end_;
  }

 private:
  bool Value() {
    if (p_ == end_) {
      return false;
    }
    switch (*p_) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++p_;  // '{'
    Ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      Ws();
      if (!String()) {
        return false;
      }
      Ws();
      if (p_ == end_ || *p_ != ':') {
        return false;
      }
      ++p_;
      Ws();
      if (!Value()) {
        return false;
      }
      Ws();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      if (*p_ != ',') {
        return false;
      }
      ++p_;
    }
  }

  bool Array() {
    ++p_;  // '['
    Ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      Ws();
      if (!Value()) {
        return false;
      }
      Ws();
      if (p_ == end_) {
        return false;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      if (*p_ != ',') {
        return false;
      }
      ++p_;
    }
  }

  bool String() {
    if (p_ == end_ || *p_ != '"') {
      return false;
    }
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) {
          return false;
        }
      }
      ++p_;
    }
    if (p_ == end_) {
      return false;
    }
    ++p_;
    return true;
  }

  bool Number() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) {
      ++p_;
    }
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                          *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_));
      ++p_;
    }
    return digits && p_ != start;
  }

  bool Literal(const char* lit) {
    for (const char* q = lit; *q != '\0'; ++q, ++p_) {
      if (p_ == end_ || *p_ != *q) {
        return false;
      }
    }
    return true;
  }

  void Ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  const char* p_;
  const char* end_;
};

bool ValidJson(const std::string& s) { return JsonChecker(s).Valid(); }

bool ValidJsonl(const std::string& s) {
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) {
      continue;
    }
    if (!ValidJson(line)) {
      return false;
    }
  }
  return true;
}

// --- Unit tests: the trace primitives --------------------------------------

TEST(MetricRegistryTest, SnapshotDiffAndJson) {
  uint64_t pkts = 10;
  double depth = 3.0;
  MetricRegistry reg;
  reg.AddCounter("a.pkts", &pkts);
  reg.AddCounterFn("a.double_pkts", [&pkts] { return pkts * 2; });
  reg.AddGauge("a.depth", [&depth] { return depth; });
  EXPECT_TRUE(reg.Has("a.pkts"));
  EXPECT_FALSE(reg.Has("a.nope"));

  const MetricSnapshot before = reg.Snapshot();
  ASSERT_EQ(before.size(), 3u);
  // Sorted by name.
  EXPECT_EQ(before[0].name, "a.depth");
  EXPECT_EQ(before[1].name, "a.double_pkts");
  EXPECT_EQ(before[2].name, "a.pkts");
  EXPECT_DOUBLE_EQ(before[2].value, 10.0);

  pkts += 5;
  depth = 7.0;
  const MetricSnapshot after = reg.Snapshot();
  const MetricSnapshot diff = MetricRegistry::Diff(before, after);
  ASSERT_EQ(diff.size(), 3u);
  EXPECT_DOUBLE_EQ(diff[0].value, 7.0);   // Gauge: point-in-time.
  EXPECT_DOUBLE_EQ(diff[1].value, 10.0);  // Counter: delta.
  EXPECT_DOUBLE_EQ(diff[2].value, 5.0);   // Counter: delta.

  std::ostringstream os;
  reg.WriteJsonl(os);
  EXPECT_TRUE(ValidJsonl(os.str()));
  EXPECT_NE(os.str().find("\"a.pkts\""), std::string::npos);
}

TEST(TimeSeriesTest, DecimatesDeterministically) {
  TimeSeries series("s", 16);
  for (int i = 0; i < 10000; ++i) {
    series.Append(i, i);
  }
  EXPECT_EQ(series.appended(), 10000u);
  EXPECT_LE(series.points().size(), 16u);
  EXPECT_GE(series.points().size(), 4u);
  for (size_t i = 1; i < series.points().size(); ++i) {
    EXPECT_LT(series.points()[i - 1].first, series.points()[i].first);
  }
  // Same input -> same decimation.
  TimeSeries again("s", 16);
  for (int i = 0; i < 10000; ++i) {
    again.Append(i, i);
  }
  EXPECT_EQ(series.points(), again.points());
}

TEST(TimeSeriesTest, StorageFollowsAppendedPoints) {
  // A large point cap costs nothing until points arrive, and growth never
  // passes the cap.
  TimeSeries series("s", 1 << 16);
  EXPECT_EQ(series.points().capacity(), 0u);
  series.Append(0, 1.0);
  EXPECT_LE(series.points().capacity(), 16u);
  TimeSeries capped("c", 40);
  for (int i = 0; i < 1000; ++i) {
    capped.Append(i, i);
    ASSERT_LE(capped.points().capacity(), 40u);
  }
}

TEST(FlowTracerTest, RingOverwritesOldest) {
  FlowTracer tracer(8);
  tracer.SetGlobal(true);
  for (int i = 0; i < 20; ++i) {
    tracer.Record(i * 10, 1, FlowEventType::kDataTx, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.overwritten(), 12u);
  const std::vector<FlowEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().a, 12u);  // Oldest surviving record.
  EXPECT_EQ(events.back().a, 19u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].t, events[i].t);
  }
}

TEST(FlowTracerTest, PerFlowEnableFilters) {
  FlowTracer tracer(64);
  tracer.EnableFlow(7);
  tracer.Record(1, 7, FlowEventType::kDataTx);
  tracer.Record(2, 8, FlowEventType::kDataTx);
  EXPECT_TRUE(tracer.enabled(7));
  EXPECT_FALSE(tracer.enabled(8));
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.Events()[0].flow, 7u);
}

TEST(SpanRecorderTest, KeepsNewestAtCapacity) {
  SpanRecorder spans(2);
  spans.SetEnabled(true);
  spans.Record(0, "a", 0, 10);
  spans.Record(0, "b", 10, 20);
  spans.Record(0, "c", 20, 30);
  const std::vector<TraceSpan> kept = spans.spans();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_STREQ(kept[0].name, "b");  // The oldest span made room.
  EXPECT_STREQ(kept[1].name, "c");
  EXPECT_EQ(spans.dropped(), 1u);
}

TEST(SimulatorMetricsTest, PendingHighWaterAndRegistry) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.At(100 + i, [] {});
  }
  EXPECT_GE(sim.max_pending_events(), 5u);
  sim.RunUntil(1000);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_GE(sim.max_pending_events(), 5u);  // High-water survives the drain.

  MetricRegistry reg;
  RegisterSimulatorMetrics(&reg, &sim);
  EXPECT_TRUE(reg.Has("sim.events_executed"));
  EXPECT_TRUE(reg.Has("sim.pending_events"));
  EXPECT_TRUE(reg.Has("sim.max_pending_events"));
  const MetricSnapshot snap = reg.Snapshot();
  for (const MetricSample& s : snap) {
    if (s.name == "sim.max_pending_events") {
      EXPECT_GE(s.value, 5.0);
    }
  }
}

TEST(NetMetricsTest, LinkAndSwitchRegisterViews) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  LinkConfig link;
  link.gbps = 10.0;
  auto exp = Experiment::Star({spec, spec}, {link});

  MetricRegistry reg;
  exp->host_link(0)->RegisterMetrics(&reg, "link.h0");
  exp->net()->switch_at(0)->RegisterMetrics(&reg, "switch");
  EXPECT_TRUE(reg.Has("link.h0.d0.tx_packets"));
  EXPECT_TRUE(reg.Has("link.h0.d1.drops_induced"));
  EXPECT_TRUE(reg.Has("link.h0.d0.queue_pkts"));
  EXPECT_TRUE(reg.Has("switch.forwarded"));
  EXPECT_TRUE(reg.Has("switch.port.0.queue_pkts"));

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 1;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(5));

  double forwarded = 0, tx_pkts = 0;
  for (const MetricSample& s : reg.Snapshot()) {
    if (s.name == "switch.forwarded") {
      forwarded = s.value;
    } else if (s.name == "link.h0.d0.tx_packets" || s.name == "link.h0.d1.tx_packets") {
      tx_pkts += s.value;
    }
  }
  EXPECT_GT(forwarded, 0.0);
  EXPECT_GT(tx_pkts, 0.0);
}

// --- End-to-end: lossy transfer through the full TAS wiring ----------------

struct TraceRun {
  std::string metrics;
  std::string flow_events;
  std::string timeseries;
  std::string perfetto;
  std::vector<FlowEvent> events;  // Sender-side, ring order.
  std::vector<TraceSpan> spans;   // Sender-side, ring order.
  uint64_t overwritten_events = 0;
  uint64_t dropped_spans = 0;
  uint64_t retransmits = 0;
};

TraceRun RunLossyTransfer(size_t ring_capacity = 1u << 16) {
  TasConfig tas_config;
  tas_config.trace.flow_events = true;
  tas_config.trace.flow_event_capacity = ring_capacity;
  tas_config.trace.cpu_spans = true;
  tas_config.trace.span_capacity = ring_capacity;
  tas_config.trace.sample_period = Us(100);
  tas_config.trace.sample_flows = true;

  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 2;
  spec.tas = tas_config;
  spec.tas_overridden = true;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 128;
  link.faults.Add(BernoulliLoss(0.02));
  link.rng_seed = 11;  // Fixed seed: byte-identical reruns.
  auto exp = Experiment::PointToPoint(spec, spec, link);

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 2;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(30));

  TraceRun out;
  const Tracer& tracer = exp->host(1).tas()->tracer();  // Sender side.
  std::ostringstream m, f, t, p;
  tracer.WriteMetricsJsonl(m);
  tracer.WriteFlowEventsJsonl(f);
  tracer.WriteTimeSeriesJsonl(t);
  tracer.WritePerfettoJson(p);
  out.metrics = m.str();
  out.flow_events = f.str();
  out.timeseries = t.str();
  out.perfetto = p.str();
  out.events = tracer.flow_events().Events();
  out.spans = tracer.spans().spans();
  out.overwritten_events = tracer.flow_events().overwritten();
  out.dropped_spans = tracer.spans().dropped();
  const TasStats& stats = exp->host(1).tas()->stats();
  out.retransmits = stats.fast_retransmits + stats.timeout_retransmits;
  return out;
}

class LossyTraceTest : public ::testing::Test {
 protected:
  static const TraceRun& Run() {
    static const TraceRun run = RunLossyTransfer();
    return run;
  }
};

TEST_F(LossyTraceTest, HandshakeRetransmitAndCcUpdateInOrder) {
  const std::vector<FlowEvent>& events = Run().events;
  ASSERT_FALSE(events.empty());
  EXPECT_GT(Run().retransmits, 0u);  // 2% loss must trigger recovery.

  // Timestamps are monotone in ring order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t, events[i].t) << "at index " << i;
  }

  // For the first traced flow: handshake events precede data, data precedes
  // the first retransmit, and cc updates only happen once established.
  const uint64_t flow = events.front().flow;
  TimeNs established = -1;
  TimeNs first_data_tx = -1;
  TimeNs first_rexmit = -1;
  TimeNs first_cc = -1;
  bool saw_syn_tx = false;
  for (const FlowEvent& e : events) {
    if (e.flow != flow) {
      continue;
    }
    switch (e.type) {
      case FlowEventType::kSynTx:
        saw_syn_tx = true;
        break;
      case FlowEventType::kConnState:
        if (e.a == static_cast<uint64_t>(ConnState::kEstablished) && established < 0) {
          established = e.t;
        }
        break;
      case FlowEventType::kDataTx:
        if (first_data_tx < 0) {
          first_data_tx = e.t;
        }
        break;
      case FlowEventType::kFastRetransmit:
      case FlowEventType::kTimeoutRetransmit:
        if (first_rexmit < 0) {
          first_rexmit = e.t;
        }
        break;
      case FlowEventType::kCcUpdate:
        if (first_cc < 0) {
          first_cc = e.t;
        }
        break;
      default:
        break;
    }
  }
  // The ring may have rotated past the handshake for long runs; with a 64K
  // capacity and a 30 ms run it has not.
  EXPECT_TRUE(saw_syn_tx);
  ASSERT_GE(established, 0);
  ASSERT_GE(first_data_tx, 0);
  ASSERT_GE(first_cc, 0);
  EXPECT_LE(established, first_data_tx);
  EXPECT_LE(first_data_tx, first_cc);
  if (first_rexmit >= 0) {
    EXPECT_LE(first_data_tx, first_rexmit);
  }
}

TEST_F(LossyTraceTest, ExportsAreValidJson) {
  EXPECT_TRUE(ValidJsonl(Run().metrics));
  EXPECT_TRUE(ValidJsonl(Run().flow_events));
  EXPECT_TRUE(ValidJsonl(Run().timeseries));
  EXPECT_TRUE(ValidJson(Run().perfetto));
  // The Perfetto export carries all three record families.
  EXPECT_NE(Run().perfetto.find("\"ph\":\"X\""), std::string::npos);  // Spans.
  EXPECT_NE(Run().perfetto.find("\"ph\":\"i\""), std::string::npos);  // Flow events.
  EXPECT_NE(Run().perfetto.find("\"ph\":\"C\""), std::string::npos);  // Series.
  EXPECT_NE(Run().perfetto.find("fastpath-core-0"), std::string::npos);
  // The metric dump covers every layer that registered.
  EXPECT_NE(Run().metrics.find("tas.fastpath.rx_packets"), std::string::npos);
  EXPECT_NE(Run().metrics.find("nic.rx_packets"), std::string::npos);
  EXPECT_NE(Run().metrics.find("sim.events_executed"), std::string::npos);
  // The sampler produced per-flow and per-core series.
  EXPECT_NE(Run().timeseries.find("tas.core.0.util"), std::string::npos);
  EXPECT_NE(Run().timeseries.find("flow.0."), std::string::npos);
  EXPECT_NE(Run().timeseries.find("tas.active_cores"), std::string::npos);
}

TEST_F(LossyTraceTest, SameSeedRunsAreByteIdentical) {
  const TraceRun second = RunLossyTransfer();
  EXPECT_EQ(Run().metrics, second.metrics);
  EXPECT_EQ(Run().flow_events, second.flow_events);
  EXPECT_EQ(Run().timeseries, second.timeseries);
  EXPECT_EQ(Run().perfetto, second.perfetto);
}

// Both rings overflow: each keeps its newest records, so the retained CPU
// spans and flow events cover the same (final) stretch of the run and a
// Perfetto export shows them side by side.
TEST(TraceRingsTest, OverflowingSpanAndFlowRingsKeepOverlappingWindows) {
  const TraceRun run = RunLossyTransfer(/*ring_capacity=*/256);
  ASSERT_GT(run.dropped_spans, 0u);
  ASSERT_GT(run.overwritten_events, 0u);
  ASSERT_FALSE(run.spans.empty());
  ASSERT_FALSE(run.events.empty());
  TimeNs span_from = run.spans.front().start;
  TimeNs span_to = run.spans.front().end;
  for (const TraceSpan& span : run.spans) {
    span_from = std::min(span_from, span.start);
    span_to = std::max(span_to, span.end);
  }
  const TimeNs flow_from = run.events.front().t;
  const TimeNs flow_to = run.events.back().t;
  EXPECT_LE(span_from, flow_to) << "spans [" << span_from << ", " << span_to
                                << "] vs flow events [" << flow_from << ", " << flow_to << "]";
  EXPECT_LE(flow_from, span_to) << "spans [" << span_from << ", " << span_to
                                << "] vs flow events [" << flow_from << ", " << flow_to << "]";
}

}  // namespace
}  // namespace tas
