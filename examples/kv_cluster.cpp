// Key-value store cluster demo (the paper's flagship workload, §5.3): one
// TAS-accelerated KV server, several client machines issuing a zipf-skewed
// 90/10 GET/SET mix, first closed-loop to find peak throughput, then
// rate-limited to show the latency profile at moderate load.
//
// Run: ./build/examples/kv_cluster
#include <cstdio>

#include "src/app/kv_store.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

int main() {
  using namespace tas;

  constexpr int kClientHosts = 3;
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;

  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  server_spec.app_cores = 2;
  server_spec.stack_cores = 2;
  specs.push_back(server_spec);
  LinkConfig server_link;
  server_link.gbps = 40.0;
  links.push_back(server_link);

  for (int i = 0; i < kClientHosts; ++i) {
    HostSpec client_spec;
    client_spec.stack = StackKind::kTas;
    client_spec.app_cores = 2;
    client_spec.stack_cores = 2;
    specs.push_back(client_spec);
    links.push_back(LinkConfig{});  // 10G default.
  }
  auto exp = Experiment::Star(specs, links);

  KvServerConfig server_config;
  server_config.num_keys = 100000;
  server_config.key_bytes = 32;
  server_config.value_bytes = 64;
  KvServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();

  std::vector<std::unique_ptr<KvClient>> clients;
  for (int i = 0; i < kClientHosts; ++i) {
    KvClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = 128;
    cc.connect_spread = Ms(20);  // Ramp connections gently past the slow path.
    cc.rng_seed = 7 + i;
    clients.push_back(
        std::make_unique<KvClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }

  // Phase 1: closed loop at peak load.
  exp->sim().RunUntil(Ms(30));
  for (auto& client : clients) {
    client->BeginMeasurement();
  }
  exp->sim().RunUntil(Ms(60));

  double peak_mops = 0;
  for (auto& client : clients) {
    peak_mops += client->Throughput() / 1e6;
  }
  std::printf("Peak throughput (closed loop):  %.2f mOps\n", peak_mops);
  std::printf("GETs/SETs served: %llu/%llu (target mix 90/10)\n",
              static_cast<unsigned long long>(server.gets()),
              static_cast<unsigned long long>(server.sets()));

  // Phase 2: request latency at peak (closed-loop) load — includes the
  // queueing the saturated server induces.
  for (auto& client : clients) {
    client->BeginMeasurement();
  }
  exp->sim().RunUntil(Ms(120));
  const LatencyRecorder& latency = clients[0]->latency();
  TablePrinter table({"Percentile", "Latency [us]"});
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    table.AddRow(Fmt(p, 1), Fmt(latency.Percentile(p), 1));
  }
  std::printf("\nRequest latency at peak load:\n");
  table.Print();

  std::printf("\nTAS fast-path handled %llu packets; slow path saw %llu exceptions.\n",
              static_cast<unsigned long long>(
                  exp->host(0).tas()->stats().fastpath_rx_packets),
              static_cast<unsigned long long>(exp->host(0).tas()->stats().exceptions));
  return 0;
}
