// Fig 12: large-cluster simulation — flow completion time CDFs for short
// (<= 50 packets) and long flows on a 3-level FatTree with 1:4
// oversubscription and on-off traffic at ~30% core utilization, comparing
// TCP (NewReno), DCTCP, and TAS (rate-based DCTCP, tau = 100us).
//
// The paper simulates 2560 servers / 112 switches in ns-3; the default here
// runs a k=4 FatTree with 1:4 oversubscription (64 hosts: 2k per edge
// switch, 20 switches); TAS_SCALE=full runs k=8 (512 hosts, 80 switches).
// Shape to reproduce: TAS's FCT distribution tracks DCTCP's closely in both
// flow classes.
//
// Emits one BENCH_JSON record (bench/bench_record.h) whose det holds TAS's
// and DCTCP's p50 and p99 FCT per flow class and TAS/DCTCP at each; CI and
// bench_gate_test gate it against bench/baselines/fig12_cluster.json.
#include <sstream>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/harness/flowgen.h"

namespace tas {
namespace bench {
namespace {

constexpr uint16_t kPort = 9200;

HostSpec ProtocolHost(StackKind kind, CcAlgorithm algorithm) {
  HostSpec spec;
  spec.stack = kind;
  spec.app_cores = 2;
  if (kind == StackKind::kTas) {
    spec.tas_overridden = true;
    spec.tas.max_fastpath_cores = 2;
    spec.tas.costs = &MinimalCostModel();
    spec.tas.control_interval = Us(100);  // Paper: tau = 100us at scale.
    spec.tas.dctcp.initial_bps = 1e9;
    spec.tas.rx_buffer_bytes = 128 * 1024;
    spec.tas.tx_buffer_bytes = 128 * 1024;
  } else {
    spec.engine_overridden = true;
    spec.engine = IxStackConfig();
    spec.engine.costs = &MinimalCostModel();
    spec.engine.tcp.cc = algorithm;
  }
  return spec;
}

struct ClusterResult {
  std::vector<double> short_pcts;  // FCT [ms] at {50, 90, 99}.
  std::vector<double> long_pcts;
};

ClusterResult RunCluster(StackKind kind, CcAlgorithm algorithm) {
  FatTreeConfig topo;
  topo.k = FullScale() ? 8 : 4;
  topo.hosts_per_edge = 2 * topo.k;  // 1:4 oversubscription (k/2 uplinks).
  topo.host_link.gbps = 10.0;
  topo.host_link.propagation_delay = Us(1);
  topo.host_link.ecn_threshold_pkts = 65;
  topo.fabric_link = topo.host_link;

  auto exp = Experiment::Custom(
      [&topo](Simulator* sim) {
        return MakeFatTree(sim, topo);
      },
      {ProtocolHost(kind, algorithm)});

  // Destination pool: every host.
  std::vector<std::pair<IpAddr, uint16_t>> destinations;
  for (size_t i = 0; i < exp->num_hosts(); ++i) {
    destinations.emplace_back(exp->host(i).ip(), kPort);
  }

  std::vector<std::unique_ptr<FlowSource>> sources;
  for (size_t i = 0; i < exp->num_hosts(); ++i) {
    FlowGenConfig gen;
    gen.destinations = destinations;
    gen.rng_seed = 1000 + i;
    gen.pareto_min_bytes = 2 * 1448;
    gen.pareto_max_bytes = 1e6;
    gen.pareto_alpha = 1.05;
    BoundedPareto sizes(gen.pareto_min_bytes, gen.pareto_max_bytes, gen.pareto_alpha);
    // Host offered load such that core links run ~30%: hosts are 4:1
    // oversubscribed, so 0.3/4 of each host link fills the core to ~30%.
    const double host_load = 0.3 / 4;
    gen.mean_interarrival =
        static_cast<TimeNs>(sizes.Mean() * 8 / (10e9 * host_load) * 1e9);
    sources.push_back(
        std::make_unique<FlowSource>(&exp->sim(), exp->host(i).stack(), gen));
    sources.back()->Start();
    sources.back()->AlsoSink(kPort);
  }

  const TimeNs warmup = Ms(20);
  const TimeNs measure = ScalePick(50, 300) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  for (auto& source : sources) {
    source->BeginMeasurement();
  }
  exp->sim().RunUntil(warmup + measure);

  // Merge percentiles across hosts by pooling each host's recorded values.
  LatencyRecorder short_all;
  LatencyRecorder long_all;
  for (auto& source : sources) {
    for (const auto& [value, frac] : source->fct_ms_short().Cdf(200)) {
      (void)frac;
      short_all.Add(value);
    }
    for (const auto& [value, frac] : source->fct_ms_long().Cdf(200)) {
      (void)frac;
      long_all.Add(value);
    }
  }
  ClusterResult result;
  for (double p : {50.0, 90.0, 99.0}) {
    result.short_pcts.push_back(short_all.Percentile(p));
    result.long_pcts.push_back(long_all.Percentile(p));
  }
  return result;
}

// One flow class of the record: TAS's and DCTCP's p50 and p99 FCT [ms] and
// TAS/DCTCP at each (percentile vectors hold {p50, p90, p99}).
std::string FlowClassJson(const std::vector<double>& tas, const std::vector<double>& dctcp) {
  std::ostringstream os;
  os << "{\"tas_p50_ms\":" << tas[0] << ",\"tas_p99_ms\":" << tas[2]
     << ",\"dctcp_p50_ms\":" << dctcp[0] << ",\"dctcp_p99_ms\":" << dctcp[2]
     << ",\"tas_over_dctcp_p50\":" << tas[0] / dctcp[0]
     << ",\"tas_over_dctcp_p99\":" << tas[2] / dctcp[2] << "}";
  return os.str();
}

void Run() {
  PrintHeader("Fig 12: FatTree cluster — FCT distribution, short and long flows",
              "TAS paper Figure 12 (3-level FatTree, 1:4 oversubscription, ~30% load)");
  const ClusterResult tcp = RunCluster(StackKind::kIx, CcAlgorithm::kNewReno);
  const ClusterResult dctcp = RunCluster(StackKind::kIx, CcAlgorithm::kDctcpWindow);
  const ClusterResult tas = RunCluster(StackKind::kTas, CcAlgorithm::kDctcpRate);

  const char* rows[] = {"p50", "p90", "p99"};
  std::cout << "\nShort flows (<= 50 packets), FCT in ms:\n";
  TablePrinter short_table({"Percentile", "TCP", "DCTCP", "TAS"});
  for (int i = 0; i < 3; ++i) {
    short_table.AddRow(rows[i], Fmt(tcp.short_pcts[i], 3), Fmt(dctcp.short_pcts[i], 3),
                       Fmt(tas.short_pcts[i], 3));
  }
  short_table.Print();
  std::cout << "\nLong flows (> 50 packets), FCT in ms:\n";
  TablePrinter long_table({"Percentile", "TCP", "DCTCP", "TAS"});
  for (int i = 0; i < 3; ++i) {
    long_table.AddRow(rows[i], Fmt(tcp.long_pcts[i], 3), Fmt(dctcp.long_pcts[i], 3),
                      Fmt(tas.long_pcts[i], 3));
  }
  long_table.Print();
  std::cout << "\nPaper: TAS's FCT distributions are close to DCTCP's for both short and\n"
               "long flows; 100us is ample time for per-flow rate updates.\n";

  BenchRecord record("fig12_cluster");
  record.DetJson("short", FlowClassJson(tas.short_pcts, dctcp.short_pcts));
  record.DetJson("long", FlowClassJson(tas.long_pcts, dctcp.long_pcts));
  record.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
