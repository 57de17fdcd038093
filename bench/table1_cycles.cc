// Table 1 + Table 2 companion: CPU cycles per request by network stack
// module, measured from the simulation's cycle accounting while a KV-style
// RPC echo workload saturates the server (paper §2.2: 8 server cores, 32K
// connections, small requests). Prints one BENCH_JSON record
// (bench/bench_record.h) holding each stack's kilocycles per module and in
// total.
#include <sstream>

#include "bench/bench_common.h"
#include "bench/bench_record.h"

namespace tas {
namespace bench {
namespace {

struct Breakdown {
  double per_module[kNumCpuModules] = {};
  double total = 0;
};

Breakdown MeasureBreakdown(StackKind kind) {
  const size_t connections = ScalePick(2048, 32768);
  EchoRunConfig config;
  config.server_stack = kind;
  config.server_app_cores = 4;
  config.server_stack_cores = 4;  // 8 total "server cores" as in the paper.
  config.connections = connections;
  config.request_bytes = 64 + 32;  // 64 B keys, 32 B values.
  config.response_bytes = 32;
  config.warmup = Ms(10) + static_cast<TimeNs>(connections) * Us(30);
  config.measure = Ms(20);

  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  specs.push_back(ServerSpec(kind, config.server_app_cores, config.server_stack_cores,
                             4 * 1024));
  links.push_back(ServerLink());
  for (size_t i = 0; i < 4; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  EchoServerConfig server_config;
  server_config.request_bytes = config.request_bytes;
  server_config.response_bytes = config.response_bytes;
  server_config.app_cycles = 680;
  EchoServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();
  std::vector<std::unique_ptr<EchoClient>> clients;
  for (size_t i = 0; i < 4; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = connections / 4;
    cc.request_bytes = config.request_bytes;
    cc.response_bytes = config.response_bytes;
    cc.connect_spread = config.warmup * 3 / 4;
    cc.first_request_at = config.warmup - Ms(2);
    clients.push_back(
        std::make_unique<EchoClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }

  exp->sim().RunUntil(config.warmup);
  // Snapshot cycle counters after warmup, measure the delta.
  uint64_t before[kNumCpuModules];
  for (int m = 0; m < kNumCpuModules; ++m) {
    before[m] = exp->host(0).TotalCycles(static_cast<CpuModule>(m));
  }
  const uint64_t requests_before = server.requests_served();
  exp->sim().RunUntil(config.warmup + config.measure);

  Breakdown result;
  const uint64_t requests = server.requests_served() - requests_before;
  for (int m = 0; m < kNumCpuModules; ++m) {
    const uint64_t cycles =
        exp->host(0).TotalCycles(static_cast<CpuModule>(m)) - before[m];
    result.per_module[m] =
        requests == 0 ? 0 : static_cast<double>(cycles) / static_cast<double>(requests);
    result.total += result.per_module[m];
  }
  return result;
}

// One stack's row of the record: {"driver":kc,...,"app":kc,"total":kc}.
std::string KilocyclesJson(const Breakdown& b) {
  std::ostringstream os;
  const char* const keys[kNumCpuModules] = {"driver", "ip", "tcp", "sockets", "other", "app"};
  for (int m = 0; m < kNumCpuModules; ++m) {
    os << (m == 0 ? "{" : ",") << "\"" << keys[m] << "\":" << b.per_module[m] / 1000;
  }
  os << ",\"total\":" << b.total / 1000 << "}";
  return os.str();
}

void Run() {
  PrintHeader("Table 1: CPU cycles per request by network stack module",
              "TAS paper Table 1 (kilocycles and % of total)");
  const StackKind kinds[] = {StackKind::kLinux, StackKind::kIx, StackKind::kTas};
  const char* const names[] = {"linux", "ix", "tas"};
  Breakdown results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = MeasureBreakdown(kinds[i]);
  }

  TablePrinter table({"Module", "Linux kc", "Linux %", "IX kc", "IX %", "TAS kc", "TAS %"});
  for (int m = 0; m < kNumCpuModules; ++m) {
    table.AddRow(CpuModuleName(static_cast<CpuModule>(m)),
                 Fmt(results[0].per_module[m] / 1000, 2),
                 Fmt(results[0].per_module[m] / results[0].total * 100, 0),
                 Fmt(results[1].per_module[m] / 1000, 2),
                 Fmt(results[1].per_module[m] / results[1].total * 100, 0),
                 Fmt(results[2].per_module[m] / 1000, 2),
                 Fmt(results[2].per_module[m] / results[2].total * 100, 0));
  }
  table.AddRow("Total", Fmt(results[0].total / 1000, 2), "100",
               Fmt(results[1].total / 1000, 2), "100", Fmt(results[2].total / 1000, 2),
               "100");
  table.Print();
  std::cout << "\nPaper totals: Linux 16.75 kc, IX 2.73 kc, TAS 2.57 kc per request.\n";
  BenchRecord record("table1_cycles");
  for (int i = 0; i < 3; ++i) {
    record.DetJson(names[i], KilocyclesJson(results[i]));
  }
  record.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
