// Fig 11: congestion-control fidelity on a single 10Gbps link with 100us
// RTT at 75% utilization, Pareto flow sizes — average flow completion time
// and average queue length as a function of the TAS slow-path control
// interval tau, against window-based TCP (NewReno) and DCTCP baselines.
//
// Shape to reproduce: TAS FCT matches DCTCP once tau exceeds the RTT; very
// small tau causes rate fluctuation and longer FCTs; queue length grows
// slowly with tau but stays near DCTCP's.
//
// Emits one BENCH_JSON record (bench/bench_record.h): the window baselines'
// FCT and queue (TCP and DCTCP, which do not depend on tau and run once),
// and per tau TAS's FCT and queue and TAS/DCTCP FCT. Tier-1's
// bench_gate_test and CI gate it against
// bench/baselines/fig11_cc_interval.json.
#include <sstream>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/harness/flowgen.h"

namespace tas {
namespace bench {
namespace {

constexpr double kLinkGbps = 10.0;
constexpr TimeNs kOneWay = Us(25);  // ~100us RTT incl. reverse path.
constexpr uint16_t kPort = 9100;

struct CcResult {
  double avg_fct_ms = 0;
  double avg_queue_pkts = 0;
};

HostSpec ProtocolHost(StackKind kind, CcAlgorithm algorithm, TimeNs tau) {
  HostSpec spec;
  spec.stack = kind;
  spec.app_cores = 4;
  if (kind == StackKind::kTas) {
    spec.tas_overridden = true;
    spec.tas.max_fastpath_cores = 4;
    spec.tas.costs = &MinimalCostModel();
    spec.tas.control_interval = tau;
    spec.tas.rx_buffer_bytes = 256 * 1024;
    spec.tas.tx_buffer_bytes = 256 * 1024;
    spec.tas.dctcp.min_bps = 5e6;
    // Comparable starting point to the window baselines (10 segments/RTT).
    spec.tas.dctcp.initial_bps = 1e9;
  } else {
    spec.engine_overridden = true;
    spec.engine = IxStackConfig();
    spec.engine.costs = &MinimalCostModel();
    spec.engine.tcp.cc = algorithm;
    spec.engine.tcp.tx_buffer_bytes = 256 * 1024;
    spec.engine.tcp.rx_buffer_bytes = 256 * 1024;
  }
  return spec;
}

CcResult RunPoint(StackKind kind, CcAlgorithm algorithm, TimeNs tau) {
  LinkConfig link;
  link.gbps = kLinkGbps;
  link.propagation_delay = kOneWay;
  link.queue_limit_pkts = 512;
  link.ecn_threshold_pkts = 65;  // Paper's DCTCP marking threshold.
  HostSpec sink_spec = ProtocolHost(kind, algorithm, tau);
  HostSpec source_spec = ProtocolHost(kind, algorithm, tau);
  auto exp = Experiment::PointToPoint(sink_spec, source_spec, link);

  FlowSink sink(&exp->sim(), exp->host(0).stack(), kPort);
  sink.Start();

  FlowGenConfig gen;
  gen.destinations = {{exp->host(0).ip(), kPort}};
  gen.pareto_min_bytes = 2 * 1448;
  gen.pareto_max_bytes = 1e6;
  gen.pareto_alpha = 1.05;
  BoundedPareto sizes(gen.pareto_min_bytes, gen.pareto_max_bytes, gen.pareto_alpha);
  const double load = 0.75;
  gen.mean_interarrival = static_cast<TimeNs>(sizes.Mean() * 8 / (kLinkGbps * 1e9 * load) * 1e9);
  FlowSource source(&exp->sim(), exp->host(1).stack(), gen);
  source.Start();

  Link* wire = exp->net()->links()[0].get();
  const TimeNs warmup = Ms(30);
  const TimeNs measure = ScalePick(100, 1000) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  source.BeginMeasurement();
  exp->sim().RunUntil(warmup + measure);

  CcResult result;
  const RunningStats& fct = source.fct_ms_all();
  result.avg_fct_ms = fct.count() == 0 ? 0 : fct.sum() / static_cast<double>(fct.count());
  result.avg_queue_pkts = wire->stats(1).queue_pkts.mean();
  return result;
}

// One window baseline's part of the record: its average FCT [ms] and queue.
std::string ResultJson(const CcResult& r) {
  std::ostringstream os;
  os << "{\"fct_ms\":" << r.avg_fct_ms << ",\"queue_pkts\":" << r.avg_queue_pkts << "}";
  return os.str();
}

void Run() {
  PrintHeader("Fig 11: single 10G link — FCT and queue vs control interval tau",
              "TAS paper Figure 11 (75% load, 100us RTT, Pareto flows)");
  const CcResult tcp = RunPoint(StackKind::kIx, CcAlgorithm::kNewReno, 0);
  const CcResult dctcp = RunPoint(StackKind::kIx, CcAlgorithm::kDctcpWindow, 0);

  BenchRecord record("fig11_cc_interval");
  record.DetJson("tcp", ResultJson(tcp));
  record.DetJson("dctcp", ResultJson(dctcp));
  std::ostringstream rows;

  std::vector<TimeNs> taus = {Us(50), Us(100), Us(200), Us(500), Ms(1)};
  if (FullScale()) {
    taus = {Us(25), Us(50), Us(100), Us(200), Us(400), Us(600), Us(800), Ms(1)};
  }
  TablePrinter table({"tau [us]", "TAS FCT [ms]", "TAS queue [pkts]", "DCTCP FCT [ms]",
                      "DCTCP queue", "TCP FCT [ms]", "TCP queue"});
  for (TimeNs tau : taus) {
    const CcResult tas = RunPoint(StackKind::kTas, CcAlgorithm::kDctcpRate, tau);
    table.AddRow(ToUs(tau), Fmt(tas.avg_fct_ms, 3), Fmt(tas.avg_queue_pkts, 1),
                 Fmt(dctcp.avg_fct_ms, 3), Fmt(dctcp.avg_queue_pkts, 1),
                 Fmt(tcp.avg_fct_ms, 3), Fmt(tcp.avg_queue_pkts, 1));
    rows << (rows.tellp() == 0 ? "[" : ",") << "{\"tau_us\":" << ToUs(tau)
         << ",\"tas_fct_ms\":" << tas.avg_fct_ms << ",\"tas_queue_pkts\":" << tas.avg_queue_pkts
         << ",\"tas_over_dctcp_fct\":" << tas.avg_fct_ms / dctcp.avg_fct_ms << "}";
  }
  table.Print();
  std::cout << "\nPaper: TAS FCT ~= DCTCP for tau > RTT; too-small tau slows convergence;\n"
               "TCP (no ECN) holds much longer queues than both DCTCP and TAS.\n";

  record.DetJson("rows", rows.str() + "]");
  record.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
