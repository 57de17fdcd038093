// Flight recorder + SLO watchdog suite (DESIGN.md §15): a fault-injected
// chaos run must auto-produce a diagnostic bundle naming the breached SLO
// whose evidence window covers the injected fault; same-seed runs must
// produce byte-identical bundles; and an
// armed-but-untriggered run must leave the workload byte-identical to a
// recorder-off run (timing passivity).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/harness/experiment.h"
#include "src/tas/slow_path.h"
#include "src/tas/watchdog.h"
#include "src/trace/flight_recorder.h"

namespace tas {
namespace {

LinkConfig ChaosLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

// Arms the watchdog with one aggressive retransmit-rate SLO: any sustained
// retransmission over two consecutive 2 ms checks triggers.
HostSpec ArmedClientSpec(const std::string& bundle_prefix) {
  HostSpec spec = TasSpec();
  spec.tas_overridden = true;
  spec.tas.watchdog.enabled = true;
  spec.tas.watchdog.check_interval = Ms(2);
  spec.tas.watchdog.recorder_window = Ms(20);
  spec.tas.watchdog.cooldown = Ms(50);
  spec.tas.watchdog.bundle_prefix = bundle_prefix;
  SloSpec slo;
  slo.name = "retransmit_rate";
  slo.kind = SloKind::kRetransmitRate;
  slo.threshold = 50.0;  // Retransmits per second.
  slo.burn_windows = 2;
  slo.min_count = 1;
  spec.tas.watchdog.slos.push_back(slo);
  return spec;
}

// Minimal app pair (mirrors chaos_test.cc).
class RecordingServer : public AppHandler {
 public:
  RecordingServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}
  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void OnRemoteClosed(ConnId conn) override { stack_->Close(conn); }

  Stack* stack_;
  uint16_t port_;
  size_t received_ = 0;
};

class PatternClient : public AppHandler {
 public:
  PatternClient(Stack* stack, IpAddr server, uint16_t port, size_t total)
      : stack_(stack), server_(server), port_(port), total_(total) {}
  void Start() {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(server_, port_);
  }
  void OnConnected(ConnId conn, bool success) override {
    if (success) {
      Pump(conn);
    }
  }
  void OnSendSpace(ConnId conn, size_t bytes) override {
    acked_ += bytes;
    Pump(conn);
    if (sent_ >= total_ && acked_ >= total_ && !closed_) {
      closed_ = true;
      stack_->Close(conn);
    }
  }
  void Pump(ConnId conn) {
    while (sent_ < total_) {
      uint8_t chunk[997];
      const size_t want = std::min(sizeof(chunk), total_ - sent_);
      for (size_t i = 0; i < want; ++i) {
        chunk[i] = static_cast<uint8_t>((sent_ + i) % 251);
      }
      const size_t n = stack_->Send(conn, chunk, want);
      sent_ += n;
      if (n < want) {
        break;
      }
    }
  }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  size_t total_;
  ConnId conn_ = kInvalidConn;
  size_t sent_ = 0;
  size_t acked_ = 0;
  bool closed_ = false;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void RemoveBundle(const std::string& prefix, int bundles) {
  for (int k = 0; k < bundles; ++k) {
    const std::string base = prefix + ".bundle" + std::to_string(k);
    std::remove((base + ".json").c_str());
    std::remove((base + ".jsonl").c_str());
    std::remove((base + ".perfetto.json").c_str());
  }
}

// Workload-facing fingerprint: transfer totals, retransmission machinery,
// link-level packet/byte/drop counts. Deliberately excludes events_executed —
// the armed watchdog adds periodic *check* events without changing any
// workload outcome.
std::string WorkloadFingerprint(Experiment& exp, size_t received) {
  std::ostringstream out;
  out << "received=" << received;
  for (size_t i = 0; i < 2; ++i) {
    const TasStats& s = exp.host(i).tas()->stats();
    out << "|h" << i << ':' << s.fastpath_rx_packets << ':' << s.fastpath_tx_packets
        << ':' << s.fastpath_acks_sent << ':' << s.fast_retransmits << ':'
        << s.timeout_retransmits << ':' << s.handshake_retransmits << ':'
        << s.rx_buffer_drops << ':' << s.ooo_accepted << ':' << s.ooo_dropped << ':'
        << s.connections_established << ':' << s.connections_closed;
  }
  const Link& link = *exp.host_link(0);
  for (int side = 0; side < 2; ++side) {
    const LinkStats& s = link.stats(side);
    out << "|l" << side << ':' << s.tx_packets << ':' << s.tx_bytes << ':'
        << s.drops_induced << ':' << s.drops_overflow;
  }
  return out.str();
}

struct ChaosRun {
  std::vector<SloTrigger> triggers;
  int bundles_written = 0;
  std::string bundle_json;      // <prefix>.bundle0.json
  std::string bundle_jsonl;     // <prefix>.bundle0.jsonl
  std::string bundle_perfetto;  // <prefix>.bundle0.perfetto.json
  std::string fingerprint;
  uint64_t checks = 0;
};

// The chaos_test total-loss scenario with the client host armed: slow link,
// wire black in both directions over [2 ms, 12 ms] mid-transfer, so the
// slow-path RTO fires timeout retransmits — a sustained retransmit-rate
// breach the watchdog must catch.
ChaosRun RunArmedChaos(const std::string& prefix, bool inject_fault = true) {
  LinkConfig slow = ChaosLink();
  slow.gbps = 0.1;
  HostSpec server_spec = TasSpec();
  server_spec.tas_overridden = true;
  auto exp = Experiment::PointToPoint(server_spec, ArmedClientSpec(prefix), slow);
  if (inject_fault) {
    FaultSchedule chaos;
    chaos.ImpairmentWindowBoth(Ms(2), Ms(12), exp->host_link(0), BernoulliLoss(1.0));
    exp->faults().Install(chaos);
  }

  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 120000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ChaosRun run;
  FlightRecorder* recorder = exp->sim().context().recorder();
  EXPECT_NE(recorder, nullptr);
  run.triggers = recorder->triggers();
  run.bundles_written = recorder->bundles_written();
  run.fingerprint = WorkloadFingerprint(*exp, server.received_);
  run.checks = exp->host(1).tas()->watchdog()->checks();
  if (!prefix.empty() && run.bundles_written > 0) {
    run.bundle_json = ReadFile(prefix + ".bundle0.json");
    run.bundle_jsonl = ReadFile(prefix + ".bundle0.jsonl");
    run.bundle_perfetto = ReadFile(prefix + ".bundle0.perfetto.json");
  }
  return run;
}

// --- The acceptance scenario: fault in, bundle out ---------------------------

TEST(WatchdogTest, FaultedChaosRunTriggersBundleNamingTheBreachedSlo) {
  const std::string prefix = "/tmp/tas_watchdog_accept";
  const ChaosRun run = RunArmedChaos(prefix);

  // The breach fired, was attributed to the armed host, and named the SLO.
  ASSERT_GE(run.triggers.size(), 1u);
  const SloTrigger& t = run.triggers[0];
  EXPECT_EQ(t.slo, "retransmit_rate");
  EXPECT_EQ(t.kind, SloKind::kRetransmitRate);
  EXPECT_EQ(t.source, "h1");
  EXPECT_GT(t.measured, t.threshold);
  EXPECT_EQ(t.burn_windows, 2);
  EXPECT_EQ(t.bundle, 0);

  // Evidence window covers the injected fault interval's onset: the loss
  // window opens at 2 ms and the 20 ms recorder window reaches back past it.
  EXPECT_LE(t.window_from, Ms(2));
  EXPECT_GE(t.window_to, Ms(4));
  EXPECT_LE(t.window_to, Ms(30));  // Triggered during/near the fault, not at the end.

  // All three bundle files landed and carry the evidence.
  EXPECT_GE(run.bundles_written, 1);
  EXPECT_NE(run.bundle_json.find("\"slo\":\"retransmit_rate\""), std::string::npos);
  EXPECT_NE(run.bundle_json.find("\"source\":\"h1\""), std::string::npos);
  EXPECT_NE(run.bundle_json.find("\"flow_table\""), std::string::npos);
  EXPECT_NE(run.bundle_json.find("\"steering\""), std::string::npos);
  EXPECT_NE(run.bundle_json.find("\"slow_path\""), std::string::npos);
  // The window's flow events include the RTO firing inside the fault window.
  EXPECT_NE(run.bundle_jsonl.find("\"type\":\"timeout_retransmit\""), std::string::npos);
  EXPECT_NE(run.bundle_jsonl.find("\"stream\":\"slo\""), std::string::npos);
  EXPECT_NE(run.bundle_perfetto.find("\"slo-trigger\""), std::string::npos);

  // The trigger JSON round-trips the machine-readable fields.
  const std::string json = SloTriggerToJson(t);
  EXPECT_NE(json.find("\"slo\":\"retransmit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"window_from\":"), std::string::npos);

  RemoveBundle(prefix, run.bundles_written);
}

TEST(WatchdogTest, CleanRunDoesNotTrigger) {
  const std::string prefix = "/tmp/tas_watchdog_clean";
  const ChaosRun run = RunArmedChaos(prefix, /*inject_fault=*/false);
  EXPECT_GT(run.checks, 0u);
  EXPECT_EQ(run.triggers.size(), 0u);
  EXPECT_EQ(run.bundles_written, 0);
  EXPECT_TRUE(ReadFile(prefix + ".bundle0.json").empty());
}

// --- Determinism: same seed => byte-identical bundles ------------------------

TEST(WatchdogTest, SameSeedRerunsProduceByteIdenticalBundles) {
  const ChaosRun a = RunArmedChaos("/tmp/tas_watchdog_rerun_a");
  const ChaosRun b = RunArmedChaos("/tmp/tas_watchdog_rerun_b");
  ASSERT_GE(a.triggers.size(), 1u);
  ASSERT_EQ(a.triggers.size(), b.triggers.size());
  EXPECT_EQ(SloTriggerToJson(a.triggers[0]), SloTriggerToJson(b.triggers[0]));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_FALSE(a.bundle_json.empty());
  EXPECT_EQ(a.bundle_json, b.bundle_json);
  EXPECT_EQ(a.bundle_jsonl, b.bundle_jsonl);
  EXPECT_EQ(a.bundle_perfetto, b.bundle_perfetto);
  RemoveBundle("/tmp/tas_watchdog_rerun_a", a.bundles_written);
  RemoveBundle("/tmp/tas_watchdog_rerun_b", b.bundles_written);
}

// --- Passivity: armed-but-untriggered == recorder-off ------------------------

TEST(WatchdogTest, ArmedUntriggeredRunIsWorkloadIdenticalToRecorderOff) {
  auto run_one = [](bool armed) {
    HostSpec client = TasSpec();
    if (armed) {
      client.tas_overridden = true;
      client.tas.watchdog.enabled = true;  // Default (conservative) SLO set,
                                           // in-memory only: no bundle prefix.
    }
    auto exp = Experiment::PointToPoint(TasSpec(), client, ChaosLink());
    RecordingServer server(exp->host(0).stack(), 7000);
    PatternClient pattern(exp->host(1).stack(), exp->host(0).ip(), 7000, 200000);
    server.Start();
    pattern.Start();
    exp->sim().RunUntil(Sec(10));

    if (armed) {
      FlightRecorder* recorder = exp->sim().context().recorder();
      EXPECT_NE(recorder, nullptr);
      // Armed, watching, recording — and silent.
      EXPECT_GT(recorder->recorded(RecorderStream::kFlow), 0u);
      EXPECT_GT(recorder->recorded(RecorderStream::kSlo), 0u);
      EXPECT_EQ(recorder->triggers().size(), 0u);
      EXPECT_EQ(recorder->bundles_written(), 0);
      EXPECT_GT(exp->host(1).tas()->watchdog()->checks(), 0u);
      EXPECT_EQ(exp->host(1).tas()->watchdog()->triggers_fired(), 0u);
    } else {
      EXPECT_EQ(exp->sim().context().recorder(), nullptr);
    }
    return WorkloadFingerprint(*exp, server.received_);
  };
  const std::string off = run_one(false);
  const std::string armed = run_one(true);
  EXPECT_EQ(off, armed);
}

// --- Recorder mechanics ------------------------------------------------------

TEST(WatchdogTest, RecorderRingOverwritesOldestAndCapturesSortedWindow) {
  WatchdogConfig config;
  config.flow_ring_capacity = 4;
  config.latency_ring_capacity = 4;
  FlightRecorder recorder(config);

  for (uint64_t i = 0; i < 6; ++i) {
    FlowEvent e;
    e.t = static_cast<TimeNs>(100 * (i + 1));
    e.flow = i;
    e.type = FlowEventType::kDataTx;
    recorder.RecordFlowEvent(e);
  }
  recorder.RecordLatency(250, 1000, 200, 300);

  EXPECT_EQ(recorder.recorded(RecorderStream::kFlow), 6u);
  EXPECT_EQ(recorder.overwritten(RecorderStream::kFlow), 2u);
  EXPECT_EQ(recorder.recorded(RecorderStream::kLatency), 1u);
  EXPECT_EQ(recorder.overwritten(RecorderStream::kLatency), 0u);

  // Window [300, 600]: flows 0 and 1 were overwritten anyway; 2..5 retained;
  // the latency record at t=250 is outside. Merged result is time-sorted.
  const std::vector<RecorderRecord> window = recorder.CaptureWindow(300, 600);
  ASSERT_EQ(window.size(), 4u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].stream, RecorderStream::kFlow);
    EXPECT_EQ(window[i].a, i + 2);  // Flow id payload slot.
    if (i > 0) {
      EXPECT_GE(window[i].t, window[i - 1].t);
    }
  }
  // Tighter window clips both ends.
  EXPECT_EQ(recorder.CaptureWindow(400, 500).size(), 2u);
  // The latency record is found by its own window.
  const std::vector<RecorderRecord> lat = recorder.CaptureWindow(200, 260);
  ASSERT_EQ(lat.size(), 1u);
  EXPECT_EQ(lat[0].stream, RecorderStream::kLatency);
  EXPECT_EQ(lat[0].a, 1000u);
}

TEST(WatchdogTest, TriggerWithoutPrefixIsRecordedButNotSerialized) {
  WatchdogConfig config;  // bundle_prefix empty.
  FlightRecorder recorder(config);

  SloTrigger trigger;
  trigger.slo = "test";
  trigger.kind = SloKind::kSlowPathQueueDepth;
  trigger.measured = 10;
  trigger.threshold = 1;
  trigger.t = Ms(5);
  trigger.window_from = 0;
  trigger.window_to = Ms(5);
  trigger.source = "h0";
  recorder.Trigger(trigger, [] { return std::string("{}"); });

  ASSERT_EQ(recorder.triggers().size(), 1u);
  EXPECT_EQ(recorder.bundles_written(), 0);
  EXPECT_EQ(recorder.triggers()[0].bundle, -1);
}

// --- Satellite: per-type drop attribution ------------------------------------

TEST(WatchdogTest, FlowTracerAttributesOverwritesToTheEvictedType) {
  FlowTracer tracer(4);
  tracer.SetGlobal(true);
  // Fill with ack_rx, then push data_tx until every ack_rx is evicted.
  for (int i = 0; i < 4; ++i) {
    tracer.Record(i, 1, FlowEventType::kAckRx);
  }
  for (int i = 0; i < 3; ++i) {
    tracer.Record(10 + i, 1, FlowEventType::kDataTx);
  }
  EXPECT_EQ(tracer.overwritten(), 3u);
  // The *lost* records were ack_rx — attribution names them, not data_tx.
  EXPECT_EQ(tracer.overwritten_by_type(FlowEventType::kAckRx), 3u);
  EXPECT_EQ(tracer.overwritten_by_type(FlowEventType::kDataTx), 0u);
  // One more wraps onto the first data_tx.
  tracer.Record(20, 1, FlowEventType::kCcUpdate);
  EXPECT_EQ(tracer.overwritten_by_type(FlowEventType::kAckRx), 4u);
  tracer.Record(21, 1, FlowEventType::kCcUpdate);
  EXPECT_EQ(tracer.overwritten_by_type(FlowEventType::kDataTx), 1u);
}

}  // namespace
}  // namespace tas
