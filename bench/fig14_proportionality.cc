// Fig 14 + Fig 15 companion: workload proportionality — the number of TAS
// fast-path cores and the end-to-end throughput as key-value clients are
// added one by one and then removed (paper: every 10s; compressed here).
//
// Shape to reproduce: cores ramp 1 -> max as load grows, then shed as load
// falls; throughput follows the offered load throughout.
#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

void Run() {
  PrintHeader("Fig 14: fast-path cores and throughput under changing load",
              "TAS paper Figure 14 (clients added then removed)");

  constexpr int kClientHosts = 5;
  const TimeNs step = ScalePick(60, 1000) * kNsPerMs;  // Paper: 10s per step.

  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  HostSpec server = ServerSpec(StackKind::kTas, 8, 10, 8 * 1024);
  server.tas.dynamic_cores = true;
  server.tas.monitor_interval = Ms(2);
  specs.push_back(server);
  links.push_back(ServerLink());
  for (int i = 0; i < kClientHosts; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  KvServerConfig server_config;
  KvServer kv(&exp->sim(), exp->host(0).stack(), server_config);
  kv.Start();

  // "Adding a client machine" = starting a closed-loop client on an idle
  // host; "removing" = detaching it from its stack and discarding it.
  std::vector<std::unique_ptr<KvClient>> active;
  auto start_client = [&](int host) {
    KvClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = 256;
    cc.target_ops_per_sec = 2.5e6;  // Each machine offers ~2.5 mOps.
    cc.rng_seed = 200 + host;
    cc.connect_spread = Ms(10);
    active.push_back(
        std::make_unique<KvClient>(&exp->sim(), exp->host(1 + host).stack(), cc));
    active.back()->Start();
  };

  TablePrinter table({"t [ms]", "clients", "fast-path cores", "throughput [mOps]"});
  TimeNs now = 0;
  uint64_t last_completed = 0;
  auto sample = [&](int active_clients) {
    exp->sim().RunUntil(now);
    uint64_t completed = 0;
    for (auto& client : active) {
      completed += client->completed();
    }
    const double mops =
        static_cast<double>(completed - last_completed) / ToSec(step) / 1e6;
    last_completed = completed;
    table.AddRow(Fmt(ToMs(now), 0), active_clients, exp->host(0).tas()->active_cores(),
                 Fmt(mops, 2));
  };

  int active_count = 0;
  for (int i = 0; i < kClientHosts; ++i) {
    start_client(i);
    ++active_count;
    now += step;
    sample(active_count);
  }
  // Remove clients one by one (highest host first): detach the handler so
  // in-flight events are dropped safely, then discard the client.
  for (int i = kClientHosts - 1; i >= 0; --i) {
    exp->host(1 + i).stack()->SetHandler(nullptr);
    last_completed -= active[i]->completed();  // Its counter leaves the sum.
    active.erase(active.begin() + i);
    --active_count;
    now += step;
    sample(active_count);
  }
  table.Print();

  std::cout << "\nCore transition trace (time ms -> active cores):\n";
  // The unified time-series path: TasService appends every transition to the
  // "tas.active_cores" series in its tracer's sampler.
  for (const auto& [t, cores] : exp->host(0).tas()->core_trace().points()) {
    std::cout << "  " << Fmt(ToMs(t), 1) << " ms -> " << static_cast<int>(cores)
              << " cores\n";
  }
  std::cout << "\nPaper: cores ramp 1 -> 9 as five client machines arrive, then shed\n"
               "back down; throughput tracks offered load throughout.\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
