// Table 2: per-request application/stack overheads. Our substrate does not
// execute x86 instructions, so instructions/CPI/top-down rows are derived
// from the measured cycle split using the paper's calibrated CPI per stack
// (Linux 1.32, IX 0.82, TAS 0.66) and the paper's measured cycle-category
// shares. The app/stack cycle split itself is simulation-measured.
#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

struct Overheads {
  double app_cycles = 0;
  double stack_cycles = 0;
};

Overheads Measure(StackKind kind) {
  EchoRunConfig config;
  config.server_stack = kind;
  config.server_app_cores = 4;
  config.server_stack_cores = 4;
  config.connections = ScalePick(2048, 32768);
  config.request_bytes = 96;
  config.response_bytes = 32;

  std::vector<HostSpec> specs{
      ServerSpec(kind, config.server_app_cores, config.server_stack_cores, 4096)};
  std::vector<LinkConfig> links{ServerLink()};
  for (int i = 0; i < 4; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);
  EchoServerConfig sc;
  sc.request_bytes = config.request_bytes;
  sc.response_bytes = config.response_bytes;
  sc.app_cycles = 680;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  std::vector<std::unique_ptr<EchoClient>> clients;
  for (int i = 0; i < 4; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = config.connections / 4;
    cc.request_bytes = config.request_bytes;
    cc.response_bytes = config.response_bytes;
    cc.connect_spread = config.warmup > 0 ? config.warmup / 2 : Ms(20);
    cc.first_request_at = Ms(10) + static_cast<TimeNs>(config.connections) * Us(30) - Ms(2);
    clients.push_back(
        std::make_unique<EchoClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }
  const TimeNs warmup = Ms(10) + static_cast<TimeNs>(config.connections) * Us(30);
  exp->sim().RunUntil(warmup);
  uint64_t app_before = exp->host(0).TotalCycles(CpuModule::kApp);
  uint64_t total_before = exp->host(0).TotalCycles();
  const uint64_t req_before = server.requests_served();
  exp->sim().RunUntil(warmup + Ms(20));
  const uint64_t requests = server.requests_served() - req_before;

  Overheads result;
  if (requests > 0) {
    result.app_cycles = static_cast<double>(exp->host(0).TotalCycles(CpuModule::kApp) -
                                            app_before) /
                        static_cast<double>(requests);
    result.stack_cycles = static_cast<double>(exp->host(0).TotalCycles() - total_before) /
                              static_cast<double>(requests) -
                          result.app_cycles;
  }
  return result;
}

void Run() {
  PrintHeader("Table 2: per-request app/stack overheads",
              "TAS paper Table 2 (cycles measured; instr/CPI derived)");
  const StackKind kinds[] = {StackKind::kLinux, StackKind::kIx, StackKind::kTas};
  const double cpi[] = {1.32, 0.82, 0.66};  // Paper-measured CPI.
  // Paper-measured cycle category shares of stack cycles (retiring /
  // frontend / backend / bad speculation), used to decompose our totals.
  const double shares[3][4] = {{0.229, 0.166, 0.577, 0.033},
                               {0.379, 0.088, 0.506, 0.026},
                               {0.444, 0.130, 0.358, 0.068}};

  Overheads results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = Measure(kinds[i]);
  }

  TablePrinter table({"Counter", "Linux", "IX", "TAS"});
  auto split = [](double app, double stack) {
    return Fmt(app, 0) + "/" + Fmt(stack, 0);
  };
  table.AddRow("CPU cycles (app/stack)", split(results[0].app_cycles, results[0].stack_cycles),
               split(results[1].app_cycles, results[1].stack_cycles),
               split(results[2].app_cycles, results[2].stack_cycles));
  for (int i = 0; i < 3; ++i) {
    const double total = results[i].app_cycles + results[i].stack_cycles;
    (void)total;
  }
  auto instr = [&](int i) {
    return Fmt((results[i].app_cycles + results[i].stack_cycles) / cpi[i] / 1000, 1) + "k";
  };
  table.AddRow("Instructions (derived)", instr(0), instr(1), instr(2));
  table.AddRow("CPI (paper-calibrated)", Fmt(cpi[0], 2), Fmt(cpi[1], 2), Fmt(cpi[2], 2));
  const char* categories[] = {"Retiring (stack cycles)", "Frontend bound", "Backend bound",
                              "Bad speculation"};
  for (int cat = 0; cat < 4; ++cat) {
    table.AddRow(categories[cat], Fmt(results[0].stack_cycles * shares[0][cat], 0),
                 Fmt(results[1].stack_cycles * shares[1][cat], 0),
                 Fmt(results[2].stack_cycles * shares[2][cat], 0));
  }
  table.Print();
  std::cout << "\nPaper: cycles 1.1k/15.7k (Linux), 0.8k/1.9k (IX), 0.7k/1.9k (TAS).\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
