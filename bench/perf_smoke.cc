// perf_smoke: macro benchmark for simulator-core overhead.
//
// Drives a fig6-style pipelined RPC run (single-threaded TAS server, ideal
// clients, pipeline depth 16) and reports how fast the simulator core chews
// through events: events/sec, wall ns/event, events per delivered packet,
// ops/sec of the workload, and peak RSS. Emits one BENCH_JSON record
// (bench/bench_record.h) so CI can gate its det values and archive its wall
// values across PRs; see EXPERIMENTS.md.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/latency.h"

namespace tas {
namespace bench {
namespace {

// TAS_LATENCY=1 enables per-packet stage stamping on the TAS server, prints
// the per-stage percentile table and puts the report under det.latency; CI
// gates it against bench/baselines/perf_smoke_latency.json. All values are
// sim-time derived, so the report is deterministic for a given seed and
// scale.
bool LatencyEnabled() {
  const char* env = std::getenv("TAS_LATENCY");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

// TAS_WATCHDOG_BENCH=1 runs the workload a second time with the flight
// recorder + SLO watchdog armed (default conservative SLOs, in-memory only)
// and emits the recorder-overhead column. Self-gating: the armed run must be
// workload-identical (ops/packets/bytes/retransmits/median — armed taps are
// timing-passive), must not trigger (false positive on a clean run), and the
// wall-clock overhead must stay under kMaxRecorderOverhead.
bool WatchdogBenchEnabled() {
  const char* env = std::getenv("TAS_WATCHDOG_BENCH");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

// Generous: the armed run's cost is a POD ring write per tap, but this gate
// also absorbs single-core CI wall-clock noise across two back-to-back runs.
constexpr double kMaxRecorderOverhead = 1.5;

struct SmokeResult {
  uint64_t events = 0;
  double wall_sec = 0;
  double ops = 0;
  uint64_t ops_count = 0;     // Completed echo operations in the window.
  uint64_t packets = 0;       // Server NIC rx+tx packets in the window.
  uint64_t bytes_delivered = 0;
  uint64_t retransmits = 0;   // Fast + timeout + handshake, whole run.
  uint64_t retransmits_fast = 0;
  uint64_t retransmits_timeout = 0;
  uint64_t retransmits_handshake = 0;
  uint64_t server_rx_drops = 0;  // NIC ring overflow + flow buffer drops.
  double median_us = 0;
  uint64_t cancelled = 0;
  uint64_t cancelled_popped = 0;
  size_t max_pending = 0;
  size_t event_nodes = 0;
  uint64_t queue_refills = 0;  // Whole run, warm-up included.
  uint64_t queue_moved = 0;
  uint64_t ctx_dropped_events = 0;  // tas.contexts.dropped_events, server.
  PacketPoolStats pool;
  LatencyReport latency;  // Empty unless TAS_LATENCY is set.
  uint64_t watchdog_triggers = 0;  // Armed runs only.
  uint64_t recorder_records = 0;   // Records retained across all streams.
};

// Inlined fig6-style pipelined echo run (see RunEcho in bench_common.h);
// inlined so the simulator's event counter can be read before teardown.
SmokeResult RunSmoke(bool armed = false) {
  const size_t kConnections = 100;
  const size_t kClientHosts = 4;
  const size_t kMessageBytes = 64;
  const TimeNs warmup = Ms(15);
  const TimeNs measure = FullScale() ? Ms(200) : Ms(60);

  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  specs.push_back(ServerSpec(StackKind::kTas, 1, 2, 64 * 1024));
  if (LatencyEnabled()) {
    specs.back().tas.trace.latency_stages = true;
  }
  if (armed) {
    specs.back().tas.watchdog.enabled = true;  // Default SLOs, in-memory only.
  }
  links.push_back(ServerLink());
  for (size_t i = 0; i < kClientHosts; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  EchoServerConfig server_config;
  server_config.request_bytes = kMessageBytes;
  server_config.response_bytes = kMessageBytes;
  server_config.app_cycles = 250;
  EchoServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();

  std::vector<std::unique_ptr<EchoClient>> clients;
  for (size_t i = 0; i < kClientHosts; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = kConnections / kClientHosts;
    cc.request_bytes = kMessageBytes;
    cc.response_bytes = kMessageBytes;
    cc.pipeline_depth = 16;
    cc.connect_spread = warmup * 3 / 4;
    cc.first_request_at = warmup - Ms(2);
    clients.push_back(std::make_unique<EchoClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }

  exp->sim().RunUntil(warmup);
  uint64_t ops_before = 0;
  for (auto& client : clients) {
    client->BeginMeasurement();
    ops_before += client->completed();
  }
  SimNic* server_nic = exp->host(0).tas()->nic();
  const uint64_t pkts_before = server_nic->rx_packets() + server_nic->tx_packets();
  const uint64_t events_before = exp->sim().events_executed();
  const auto start = std::chrono::steady_clock::now();
  exp->sim().RunUntil(warmup + measure);
  const auto end = std::chrono::steady_clock::now();

  SmokeResult result;
  result.events = exp->sim().events_executed() - events_before;
  result.wall_sec = std::chrono::duration<double>(end - start).count();
  for (auto& client : clients) {
    result.ops += client->Throughput();
    result.ops_count += client->completed();
  }
  result.ops_count -= ops_before;
  result.packets = server_nic->rx_packets() + server_nic->tx_packets() - pkts_before;
  result.bytes_delivered = result.ops_count * 2 * kMessageBytes;
  const TasStats& stats = exp->host(0).tas()->stats();
  result.retransmits =
      stats.fast_retransmits + stats.timeout_retransmits + stats.handshake_retransmits;
  result.retransmits_fast = stats.fast_retransmits;
  result.retransmits_timeout = stats.timeout_retransmits;
  result.retransmits_handshake = stats.handshake_retransmits;
  result.server_rx_drops = server_nic->rx_drops() + stats.rx_buffer_drops;
  result.median_us = clients[0]->latency().Median();
  result.cancelled = exp->sim().cancelled_events();
  result.cancelled_popped = exp->sim().cancelled_popped();
  result.max_pending = exp->sim().max_pending_events();
  result.event_nodes = exp->sim().event_nodes_total();
  result.queue_refills = exp->sim().refills();
  result.queue_moved = exp->sim().entries_moved();
  result.ctx_dropped_events = ContextDroppedEvents(exp->host(0).tas());
  result.pool = exp->packet_pool().stats();
  if (LatencyEnabled()) {
    result.latency = exp->host(0).tas()->tracer().latency().Report();
  }
  if (armed) {
    FlightRecorder* recorder = exp->sim().context().recorder();
    result.watchdog_triggers = recorder->triggers().size();
    for (int s = 0; s < kNumRecorderStreams; ++s) {
      result.recorder_records += recorder->recorded(static_cast<RecorderStream>(s));
    }
  }
  return result;
}

int Run() {
  PrintHeader("perf_smoke: simulator-core event throughput",
              "fig6-style pipelined RPC (64B, depth 16, TAS server)");

  const SmokeResult r = RunSmoke();
  const double events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  const double ns_per_event =
      r.events > 0 ? r.wall_sec * 1e9 / static_cast<double>(r.events) : 0;
  const double events_per_packet =
      r.packets > 0 ? static_cast<double>(r.events) / static_cast<double>(r.packets) : 0;

  // Recorder-overhead column: the same workload with the watchdog armed.
  std::vector<std::string> gate_failures;
  SmokeResult armed;
  double recorder_overhead = 0;
  if (WatchdogBenchEnabled()) {
    armed = RunSmoke(/*armed=*/true);
    recorder_overhead = r.wall_sec > 0 ? armed.wall_sec / r.wall_sec : 0;
    // Timing passivity: every workload-facing result must be bit-identical.
    if (armed.ops_count != r.ops_count || armed.packets != r.packets ||
        armed.bytes_delivered != r.bytes_delivered ||
        armed.retransmits != r.retransmits || armed.median_us != r.median_us) {
      gate_failures.push_back("armed run changed workload results (not passive)");
    }
    if (armed.watchdog_triggers != 0) {
      gate_failures.push_back("armed run triggered a default SLO (false positive)");
    }
    if (armed.recorder_records == 0) {
      gate_failures.push_back("armed run retained no recorder records");
    }
    if (recorder_overhead > kMaxRecorderOverhead) {
      gate_failures.push_back("recorder wall-clock overhead exceeds the gate");
    }
  }

  TablePrinter table({"Metric", "Value"});
  table.AddRow("events dispatched", r.events);
  table.AddRow("wall seconds", Fmt(r.wall_sec, 3));
  table.AddRow("events/sec", Fmt(events_per_sec / 1e6, 2) + "M");
  table.AddRow("wall ns/event", Fmt(ns_per_event, 1));
  table.AddRow("server packets (rx+tx)", r.packets);
  table.AddRow("events/packet", Fmt(events_per_packet, 2));
  table.AddRow("workload Mops/sec", Fmt(r.ops / 1e6, 2));
  table.AddRow("ops completed", r.ops_count);
  table.AddRow("bytes delivered", r.bytes_delivered);
  table.AddRow("retransmits", r.retransmits);
  table.AddRow("median us", Fmt(r.median_us, 1));
  table.AddRow("peak RSS MiB", Fmt(static_cast<double>(PeakRssKb()) / 1024.0, 1));
  table.AddRow("max pending events", r.max_pending);
  table.AddRow("event nodes (slab)", r.event_nodes);
  table.AddRow("queue refills (whole run)", r.queue_refills);
  table.AddRow("queue entries moved", r.queue_moved);
  table.AddRow("tas.contexts.dropped_events", r.ctx_dropped_events);
  table.AddRow("pkts allocated", r.pool.allocated);
  table.AddRow("pkts reused", r.pool.reused);
  if (WatchdogBenchEnabled()) {
    table.AddRow("armed wall seconds", Fmt(armed.wall_sec, 3));
    table.AddRow("recorder overhead (wall)", Fmt(recorder_overhead, 3) + "x");
    table.AddRow("recorder records", armed.recorder_records);
    table.AddRow("watchdog triggers", armed.watchdog_triggers);
  }
  table.Print();

  BenchRecord record("perf_smoke");
  record.Config("latency", LatencyEnabled());
  record.Config("watchdog_bench", WatchdogBenchEnabled());
  record.Det("workload", "fig6_pipelined_64b_d16");
  record.Det("events", r.events);
  record.Det("server_packets", r.packets);
  record.Det("events_per_packet", events_per_packet);
  record.Det("workload_ops_per_sec", r.ops);
  record.Det("ops_completed", r.ops_count);
  record.Det("bytes_delivered", r.bytes_delivered);
  record.Det("retransmits", r.retransmits);
  record.Det("retransmits_fast", r.retransmits_fast);
  record.Det("retransmits_timeout", r.retransmits_timeout);
  record.Det("retransmits_handshake", r.retransmits_handshake);
  record.Det("server_rx_drops", r.server_rx_drops);
  record.Det("cancelled_events", r.cancelled);
  record.Det("cancelled_popped", r.cancelled_popped);
  record.Det("max_pending_events", r.max_pending);
  record.Det("event_nodes", r.event_nodes);
  record.Det("queue_refills", r.queue_refills);
  record.Det("queue_moved", r.queue_moved);
  record.Det("ctx_dropped_events", r.ctx_dropped_events);
  record.Det("pkt_pool_allocated", r.pool.allocated);
  record.Det("pkt_pool_reused", r.pool.reused);
  record.Det("watchdog_triggers", armed.watchdog_triggers);
  record.Det("recorder_records", armed.recorder_records);
  if (LatencyEnabled()) {
    record.DetJson("latency", r.latency.ToJson());
  }
  record.Wall("wall_sec", r.wall_sec);
  record.Wall("wall_ns", static_cast<uint64_t>(r.wall_sec * 1e9));
  record.Wall("events_per_sec", events_per_sec);
  record.Wall("wall_ns_per_event", ns_per_event);
  record.Wall("recorder_overhead_wall", recorder_overhead);
  record.Wall("armed_wall_sec", armed.wall_sec);
  record.Print();

  if (LatencyEnabled()) {
    std::cout << "\n" << r.latency.ToTable();
  }
  if (!gate_failures.empty()) {
    for (const std::string& f : gate_failures) {
      std::cout << "GATE FAIL: " << f << "\n";
    }
    std::cout << "PERF_SMOKE_GATES FAIL (" << gate_failures.size() << ")\n";
    return 1;
  }
  if (WatchdogBenchEnabled()) {
    std::cout << "PERF_SMOKE_GATES PASS\n";
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { return tas::bench::Run(); }
