// Congestion-control laboratory: a dumbbell topology with an ECN-marking
// 10G bottleneck shared by bulk flows, comparing TAS's slow-path congestion
// policies (rate-based DCTCP vs TIMELY) and the window-based baselines
// (DCTCP, NewReno) — the framework of paper §3.2, where congestion control
// is policy in the slow path, swapped without touching the fast path.
//
// Run: ./build/examples/congestion_lab
#include <cstdio>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

namespace {

using namespace tas;

struct LabResult {
  double gbps = 0;
  double avg_queue_pkts = 0;
  uint64_t marks = 0;
  uint64_t drops = 0;
};

LabResult RunLab(StackKind kind, CcAlgorithm algorithm) {
  constexpr size_t kFlows = 32;
  HostSpec spec;
  spec.stack = kind;
  spec.app_cores = 4;
  if (kind == StackKind::kTas) {
    spec.tas_overridden = true;
    spec.tas.max_fastpath_cores = 4;
    spec.tas.costs = &MinimalCostModel();
    spec.tas.cc_algorithm = algorithm;
    spec.tas.dctcp.initial_bps = 500e6;
  } else {
    spec.engine_overridden = true;
    spec.engine = IxStackConfig();
    spec.engine.costs = &MinimalCostModel();
    spec.engine.tcp.cc = algorithm;
  }

  LinkConfig host_link;
  host_link.gbps = 40.0;
  LinkConfig bottleneck;
  bottleneck.gbps = 10.0;
  bottleneck.ecn_threshold_pkts = 65;  // DCTCP-style marking.
  bottleneck.queue_limit_pkts = 256;
  bottleneck.propagation_delay = Us(10);

  auto exp = Experiment::Custom(
      [&](Simulator* sim) {
        return MakeDumbbell(sim, 1, 1, host_link, bottleneck);
      },
      {spec});

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = kFlows;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();

  exp->sim().RunUntil(Ms(50));
  rx.BeginMeasurement();
  exp->sim().RunUntil(Ms(150));

  // The dumbbell's bottleneck is the first link created (ConnectSwitches).
  Link* wire = exp->net()->links()[0].get();
  LabResult result;
  result.gbps = rx.ThroughputBps() / 1e9;
  // Direction 1 -> 0 carries the data (right switch to left switch).
  result.avg_queue_pkts = wire->stats(1).queue_pkts.mean();
  result.marks = wire->stats(1).ecn_marks;
  result.drops = wire->stats(1).drops_overflow;
  return result;
}

}  // namespace

int main() {
  using namespace tas;

  std::printf("Dumbbell: 32 bulk flows across a 10G ECN-marking bottleneck.\n\n");
  struct Config {
    const char* name;
    StackKind kind;
    CcAlgorithm algorithm;
  };
  const Config configs[] = {
      {"TAS + rate-based DCTCP", StackKind::kTas, CcAlgorithm::kDctcpRate},
      {"TAS + TIMELY", StackKind::kTas, CcAlgorithm::kTimely},
      {"window DCTCP (baseline)", StackKind::kIx, CcAlgorithm::kDctcpWindow},
      {"NewReno, no ECN (baseline)", StackKind::kIx, CcAlgorithm::kNewReno},
  };
  TablePrinter table({"Congestion control", "Goodput [Gbps]", "Avg queue [pkts]",
                      "ECN marks", "Drops"});
  for (const Config& config : configs) {
    const LabResult r = RunLab(config.kind, config.algorithm);
    table.AddRow(config.name, Fmt(r.gbps, 2), Fmt(r.avg_queue_pkts, 1), r.marks, r.drops);
  }
  table.Print();
  std::printf(
      "\nTAS enforces whichever policy the slow path runs; swapping DCTCP for\n"
      "TIMELY is a one-line configuration change (paper SS3.2). ECN-driven\n"
      "controllers hold short queues; NewReno fills the buffer until it drops.\n");
  return 0;
}
