// Fig 14 + Fig 15 companion: workload proportionality — the number of TAS
// fast-path cores and the end-to-end throughput as key-value clients are
// added one by one and then removed (paper: every 10s; compressed here).
//
// Shape to reproduce: cores ramp 1 -> max as load grows, then shed as load
// falls; throughput follows the offered load throughout.
//
// Emits one BENCH_JSON record (bench/bench_record.h) whose det holds each
// row's fast-path cores and mOps, how many of a joining client's
// connections the server established within its step and by when all of
// them were, and the slow-path core's max_ahead_ns; CI and bench_gate_test
// gate it against bench/baselines/fig14_proportionality.json.
#include <sstream>

#include "bench/bench_common.h"
#include "bench/bench_record.h"

namespace tas {
namespace bench {
namespace {

void Run() {
  PrintHeader("Fig 14: fast-path cores and throughput under changing load",
              "TAS paper Figure 14 (clients added then removed)");

  constexpr int kClientHosts = 5;
  constexpr uint64_t kConnectionsPerClient = 256;
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
    cc.num_connections = kConnectionsPerClient;
    cc.target_ops_per_sec = 2.5e6;  // Each machine offers ~2.5 mOps.
    cc.rng_seed = 200 + host;
    cc.connect_spread = Ms(10);
    active.push_back(
        std::make_unique<KvClient>(&exp->sim(), exp->host(1 + host).stack(), cc));
    active.back()->Start();
  };

  TasService* tas = exp->host(0).tas();
  TablePrinter table({"t [ms]", "clients", "fast-path cores", "throughput [mOps]",
                      "joined conns up", "all up after [ms]"});
  std::ostringstream rows;
  TimeNs now = 0;
  uint64_t last_completed = 0;
  // Ends the step at `now`. `joined` counts the server's connections
  // established within the step and `all_up` is when the last of the
  // joining client's connections was (ms after the step began, 1 ms
  // resolution; -1 if not within the step); both are -1 on removal steps.
  auto sample = [&](int active_clients, int64_t joined, int64_t all_up) {
    uint64_t completed = 0;
    for (auto& client : active) {
      completed += client->completed();
    }
    const double mops =
        static_cast<double>(completed - last_completed) / ToSec(step) / 1e6;
    last_completed = completed;
    const int cores = tas->active_cores();
    auto cell = [](int64_t v) { return v < 0 ? std::string("-") : std::to_string(v); };
    table.AddRow(Fmt(ToMs(now), 0), active_clients, cores, Fmt(mops, 2), cell(joined),
                 cell(all_up));
    rows << (rows.tellp() == 0 ? "[" : ",") << "{\"t_ms\":" << ToMs(now)
         << ",\"clients\":" << active_clients << ",\"cores\":" << cores
         << ",\"mops\":" << mops << ",\"joined_established\":" << joined
         << ",\"joined_all_up_ms\":" << all_up << "}";
  };

  int active_count = 0;
  for (int i = 0; i < kClientHosts; ++i) {
    const uint64_t established_before = tas->stats().connections_established;
    auto joined = [&] { return tas->stats().connections_established - established_before; };
    start_client(i);
    ++active_count;
    int64_t all_up = -1;
    for (TimeNs t = Ms(1); t <= step; t += Ms(1)) {
      exp->sim().RunUntil(now + t);
      if (all_up < 0 && joined() >= kConnectionsPerClient) {
        all_up = t / kNsPerMs;
      }
    }
    now += step;
    sample(active_count, static_cast<int64_t>(joined()), all_up);
  }
  // Remove clients one by one (highest host first): detach the handler so
  // in-flight events are dropped safely, then discard the client.
  for (int i = kClientHosts - 1; i >= 0; --i) {
    exp->host(1 + i).stack()->SetHandler(nullptr);
    last_completed -= active[i]->completed();  // Its counter leaves the sum.
    active.erase(active.begin() + i);
    --active_count;
    now += step;
    exp->sim().RunUntil(now);
    sample(active_count, -1, -1);
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
  BenchRecord record("fig14_proportionality");
  record.DetJson("rows", rows.str() + "]");
  record.Det("slowpath_max_ahead_ns", tas->slowpath_cpu()->max_ahead_ns());
  record.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
