// Fig 15: end-to-end request latency while TAS acquires additional fast-path
// cores in response to rising load — the latency spike during the
// transition should be brief and bounded (paper: ~15us / ~30% for a moment).
#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

void Run() {
  PrintHeader("Fig 15: request latency across a fast-path core transition",
              "TAS paper Figure 15 (latency sampled in windows around scale-up)");

  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  HostSpec server = ServerSpec(StackKind::kTas, 4, 6, 8 * 1024);
  server.tas.dynamic_cores = true;
  server.tas.monitor_interval = Ms(2);
  specs.push_back(server);
  links.push_back(ServerLink());
  for (int i = 0; i < 2; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  KvServerConfig sc;
  KvServer kv(&exp->sim(), exp->host(0).stack(), sc);
  kv.Start();

  // Client 1: steady moderate load from t=0.
  KvClientConfig base;
  base.server_ip = exp->host(0).ip();
  base.num_connections = 64;
  base.target_ops_per_sec = 300000;
  base.rng_seed = 11;
  KvClient steady(&exp->sim(), exp->host(1).stack(), base);
  steady.Start();

  // Client 2: arrives mid-run and pushes the fast path past one core.
  KvClientConfig surge_config = base;
  // Triples the offered load: enough to need more fast-path cores, below
  // the app cores' capacity so queues drain once the cores arrive.
  surge_config.target_ops_per_sec = 2.2e6;
  surge_config.num_connections = 256;
  surge_config.rng_seed = 12;
  std::unique_ptr<KvClient> surge;

  const TimeNs window = Ms(5);
  const TimeNs surge_at = Ms(60);
  const TimeNs end = Ms(140);

  TablePrinter table({"t [ms]", "cores", "steady-client median [us]", "p99 [us]"});
  TimeNs now = 0;
  while (now < end) {
    if (surge == nullptr && now >= surge_at) {
      surge = std::make_unique<KvClient>(&exp->sim(), exp->host(2).stack(), surge_config);
      surge->Start();
    }
    steady.BeginMeasurement();
    now += window;
    exp->sim().RunUntil(now);
    table.AddRow(Fmt(ToMs(now), 0), exp->host(0).tas()->active_cores(),
                 Fmt(steady.latency().Median(), 1), Fmt(steady.latency().Percentile(99), 1));
  }
  table.Print();
  std::cout << "\nPaper: during the 7->9 core transition latency spikes ~15us (~30%) and\n"
               "returns to its previous level within a couple of control periods.\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
