// watchdog_chaos: self-gating chaos run for the flight recorder + SLO
// watchdog (DESIGN.md §15; EXPERIMENTS.md black-box postmortem recipe).
//
// Scenario: the chaos-suite total-loss window — a 100 Mbit/s link goes black
// in both directions over [2 ms, 12 ms] mid-transfer, forcing slow-path RTO
// retransmissions on the client host, which is armed with a retransmit-rate
// SLO. The watchdog must catch the sustained breach and serialize a
// diagnostic bundle whose evidence window covers the injected fault.
//
// Gates (exit nonzero on any failure):
//   - false negative: the faulted run MUST trigger, name the breached SLO
//     ("retransmit_rate"), attribute it to the armed host ("h1"), and write
//     a bundle whose evidence window overlaps the fault interval and whose
//     JSONL records include the in-window timeout retransmits.
//   - false positive: the identical run WITHOUT the fault must not trigger.
//   - determinism: a same-seed rerun of the faulted run must produce
//     byte-identical bundle files (.json/.jsonl/.perfetto.json).
//
// Emits one BENCH_JSON record (bench/bench_record.h), which CI gates against
// bench/baselines/watchdog_chaos.json, and archives the bundle files written
// under argv[1] (default "watchdog_chaos") as artifacts.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/fault/injector.h"
#include "src/tas/watchdog.h"
#include "src/trace/flight_recorder.h"

namespace tas {
namespace bench {
namespace {

constexpr TimeNs kFaultFrom = Ms(2);
constexpr TimeNs kFaultTo = Ms(12);

// Minimal byte-stream pair (mirrors tests/chaos_test.cc).
class ByteSinkServer : public AppHandler {
 public:
  ByteSinkServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}
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

class ByteStreamClient : public AppHandler {
 public:
  ByteStreamClient(Stack* stack, IpAddr server, uint16_t port, size_t total)
      : stack_(stack), server_(server), port_(port), total_(total) {}
  void Start() {
    stack_->SetHandler(this);
    stack_->Connect(server_, port_);
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
  size_t sent_ = 0;
  size_t acked_ = 0;
  bool closed_ = false;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Fail(std::vector<std::string>& failures, const std::string& msg) {
  if (failures.size() < 16) {
    failures.push_back(msg);
  }
}

struct ChaosResult {
  std::vector<SloTrigger> triggers;
  int bundles_written = 0;
  uint64_t checks = 0;
  uint64_t recorded_flow = 0;
  uint64_t recorded_slo = 0;
  size_t received = 0;
  uint64_t timeout_retransmits = 0;
  std::string bundle_json;
  std::string bundle_jsonl;
  std::string bundle_perfetto;
};

ChaosResult RunScenario(const std::string& prefix, bool inject_fault) {
  LinkConfig slow;
  slow.gbps = 0.1;
  slow.propagation_delay = Us(2);
  slow.queue_limit_pkts = 256;

  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  HostSpec client_spec;
  client_spec.stack = StackKind::kTas;
  client_spec.tas_overridden = true;
  client_spec.tas.watchdog.enabled = true;
  client_spec.tas.watchdog.check_interval = Ms(2);
  client_spec.tas.watchdog.recorder_window = Ms(20);
  client_spec.tas.watchdog.cooldown = Ms(50);
  client_spec.tas.watchdog.bundle_prefix = prefix;
  SloSpec slo;
  slo.name = "retransmit_rate";
  slo.kind = SloKind::kRetransmitRate;
  slo.threshold = 50.0;  // Retransmits per second, sustained over 2 checks.
  slo.burn_windows = 2;
  slo.min_count = 1;
  client_spec.tas.watchdog.slos.push_back(slo);

  auto exp = Experiment::PointToPoint(server_spec, client_spec, slow);
  if (inject_fault) {
    FaultSchedule chaos;
    chaos.ImpairmentWindowBoth(kFaultFrom, kFaultTo, exp->host_link(0),
                               BernoulliLoss(1.0));
    exp->faults().Install(chaos);
  }

  ByteSinkServer server(exp->host(0).stack(), 7000);
  ByteStreamClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 120000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ChaosResult r;
  FlightRecorder* recorder = exp->sim().context().recorder();
  r.triggers = recorder->triggers();
  r.bundles_written = recorder->bundles_written();
  r.checks = exp->host(1).tas()->watchdog()->checks();
  r.recorded_flow = recorder->recorded(RecorderStream::kFlow);
  r.recorded_slo = recorder->recorded(RecorderStream::kSlo);
  r.received = server.received_;
  r.timeout_retransmits = exp->host(1).tas()->stats().timeout_retransmits;
  if (r.bundles_written > 0) {
    r.bundle_json = ReadFile(prefix + ".bundle0.json");
    r.bundle_jsonl = ReadFile(prefix + ".bundle0.jsonl");
    r.bundle_perfetto = ReadFile(prefix + ".bundle0.perfetto.json");
  }
  return r;
}

// Scans the bundle JSONL for records of `type` and returns their timestamps.
std::vector<TimeNs> RecordTimes(const std::string& jsonl, const std::string& type) {
  std::vector<TimeNs> times;
  std::istringstream in(jsonl);
  std::string line;
  const std::string needle = "\"type\":\"" + type + "\"";
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) {
      continue;
    }
    const size_t pos = line.find("\"t\":");
    if (pos != std::string::npos) {
      times.push_back(std::strtoll(line.c_str() + pos + 4, nullptr, 10));
    }
  }
  return times;
}

int Run(int argc, char** argv) {
  PrintHeader("watchdog_chaos: SLO watchdog vs an injected total-loss window",
              "DESIGN.md §15 flight recorder, chaos-suite fault classes");
  const std::string prefix = argc > 1 ? argv[1] : "watchdog_chaos";
  std::vector<std::string> failures;

  const ChaosResult faulted = RunScenario(prefix, /*inject_fault=*/true);
  const ChaosResult rerun = RunScenario(prefix + "_rerun", /*inject_fault=*/true);
  const ChaosResult clean = RunScenario(prefix + "_clean", /*inject_fault=*/false);

  // --- False-negative gate: the fault must be caught and explained. ----------
  if (faulted.triggers.empty()) {
    Fail(failures, "faulted run produced no watchdog trigger (false negative)");
  } else {
    const SloTrigger& t = faulted.triggers[0];
    if (t.slo != "retransmit_rate") {
      Fail(failures, "trigger named '" + t.slo + "', expected 'retransmit_rate'");
    }
    if (t.source != "h1") {
      Fail(failures, "trigger attributed to '" + t.source + "', expected 'h1'");
    }
    if (t.measured <= t.threshold) {
      Fail(failures, "trigger measured value does not exceed its threshold");
    }
    if (t.bundle != 0 || faulted.bundles_written < 1) {
      Fail(failures, "trigger was not serialized as bundle 0");
    }
    // Evidence window must overlap the injected fault interval.
    if (t.window_from > kFaultTo || t.window_to < kFaultFrom) {
      Fail(failures, "evidence window does not overlap the injected fault interval");
    }
    if (faulted.bundle_json.find("\"slo\":\"retransmit_rate\"") == std::string::npos) {
      Fail(failures, "bundle .json does not name the breached SLO");
    }
    // The window's flow events must contain the RTO firings the fault caused,
    // timestamped inside the evidence window.
    const std::vector<TimeNs> rto = RecordTimes(faulted.bundle_jsonl, "timeout_retransmit");
    if (rto.empty()) {
      Fail(failures, "bundle .jsonl has no timeout_retransmit evidence records");
    }
    for (const TimeNs at : rto) {
      if (at < t.window_from || at > t.window_to) {
        Fail(failures, "bundle record timestamp outside the evidence window");
        break;
      }
    }
    if (faulted.bundle_perfetto.find("\"slo-trigger\"") == std::string::npos) {
      Fail(failures, "bundle .perfetto.json lacks the trigger evidence span");
    }
  }
  if (faulted.timeout_retransmits == 0) {
    Fail(failures, "fault injection did not cause timeout retransmits (bad scenario)");
  }
  if (faulted.received != 120000u) {
    Fail(failures, "transfer did not complete despite recovery");
  }

  // --- False-positive gate: no fault, no trigger. ----------------------------
  if (clean.checks == 0) {
    Fail(failures, "clean run never ran a watchdog check");
  }
  if (!clean.triggers.empty() || clean.bundles_written != 0) {
    Fail(failures, "clean run triggered the watchdog (false positive)");
  }

  // --- Determinism gate: same seed => byte-identical bundles. ----------------
  if (faulted.triggers.size() != rerun.triggers.size()) {
    Fail(failures, "rerun produced a different trigger count");
  } else if (!faulted.triggers.empty() &&
             SloTriggerToJson(faulted.triggers[0]) != SloTriggerToJson(rerun.triggers[0])) {
    Fail(failures, "rerun trigger record differs");
  }
  if (faulted.bundle_json != rerun.bundle_json ||
      faulted.bundle_jsonl != rerun.bundle_jsonl ||
      faulted.bundle_perfetto != rerun.bundle_perfetto) {
    Fail(failures, "rerun bundle files are not byte-identical");
  }

  TablePrinter table({"Metric", "Value"});
  table.AddRow("faulted: triggers", faulted.triggers.size());
  table.AddRow("faulted: bundles written", faulted.bundles_written);
  table.AddRow("faulted: watchdog checks", faulted.checks);
  table.AddRow("faulted: timeout retransmits", faulted.timeout_retransmits);
  table.AddRow("faulted: flow records retained", faulted.recorded_flow);
  table.AddRow("faulted: slo records retained", faulted.recorded_slo);
  table.AddRow("clean: triggers", clean.triggers.size());
  table.AddRow("clean: watchdog checks", clean.checks);
  table.AddRow("rerun bundle identical",
               faulted.bundle_json == rerun.bundle_json ? "yes" : "NO");
  table.Print();

  BenchRecord record("watchdog_chaos");
  record.Det("fault_from_ns", kFaultFrom);
  record.Det("fault_to_ns", kFaultTo);
  record.Det("triggers", faulted.triggers.size());
  record.Det("bundles_written", faulted.bundles_written);
  record.Det("checks", faulted.checks);
  record.Det("timeout_retransmits", faulted.timeout_retransmits);
  record.Det("recorded_flow", faulted.recorded_flow);
  record.Det("recorded_slo", faulted.recorded_slo);
  record.Det("clean_triggers", clean.triggers.size());
  record.Det("deterministic", faulted.bundle_json == rerun.bundle_json &&
                                      faulted.bundle_jsonl == rerun.bundle_jsonl
                                  ? 1
                                  : 0);
  if (!faulted.triggers.empty()) {
    record.DetJson("trigger", SloTriggerToJson(faulted.triggers[0]));
  }
  record.Print();

  if (failures.empty()) {
    std::cout << "WATCHDOG_CHAOS_GATES PASS\n";
    return 0;
  }
  for (const std::string& f : failures) {
    std::cout << "GATE FAIL: " << f << "\n";
  }
  std::cout << "WATCHDOG_CHAOS_GATES FAIL (" << failures.size() << ")\n";
  return 1;
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main(int argc, char** argv) { return tas::bench::Run(argc, argv); }
