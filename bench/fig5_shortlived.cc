// Fig 5: throughput with short-lived connections — 1,024 concurrent
// connections that are closed and re-established after N request/response
// exchanges, TAS vs Linux.
//
// Shape to reproduce: TAS loses below ~4 messages/connection (its
// heavyweight slow-path connection setup involves the slow path and the
// application several times), then wins increasingly as the fast path
// amortizes the setup.
//
// Emits one BENCH_JSON record (bench/bench_record.h) whose det holds TAS
// mOps, Linux mOps and TAS/Linux per messages-per-connection point; CI and
// bench_gate_test gate it against bench/baselines/fig5_shortlived.json.
#include <sstream>

#include "bench/bench_common.h"
#include "bench/bench_record.h"

namespace tas {
namespace bench {
namespace {

double RunPoint(StackKind kind, size_t messages_per_connection) {
  EchoRunConfig config;
  config.server_stack = kind;
  config.server_app_cores = 1;
  // Paper: one app core, two TAS fast-path cores + partially used slow path.
  config.server_stack_cores = 2;
  config.connections = 1024;
  config.num_client_hosts = 4;
  config.messages_per_connection = messages_per_connection;
  config.request_bytes = 64;
  config.response_bytes = 64;
  config.warmup = Ms(30);
  config.measure = Ms(30);
  return RunEcho(config).mops;
}

void Run() {
  PrintHeader("Fig 5: throughput with short-lived connections",
              "TAS paper Figure 5 (1,024 concurrent connections; crossover ~4 msgs)");
  std::vector<size_t> messages = {1, 2, 4, 16, 64, 256};
  if (FullScale()) {
    messages = {1, 2, 4, 16, 64, 256, 1024, 4096};
  }
  TablePrinter table({"Messages/conn", "TAS mOps", "Linux mOps", "TAS/Linux"});
  std::ostringstream points;
  for (size_t m : messages) {
    const double tas = RunPoint(StackKind::kTas, m);
    const double linux = RunPoint(StackKind::kLinux, m);
    table.AddRow(m, Fmt(tas, 3), Fmt(linux, 3),
                 linux > 0 ? Fmt(tas / linux, 2) : std::string("-"));
    points << (m == messages.front() ? "[" : ",") << "{\"msgs_per_conn\":" << m
           << ",\"tas_mops\":" << tas << ",\"linux_mops\":" << linux
           << ",\"tas_over_linux\":" << (linux > 0 ? tas / linux : 0) << "}";
  }
  table.Print();
  std::cout << "\nPaper: TAS overtakes Linux at >= 4 RPCs per connection and reaches 95%\n"
               "bandwidth utilization at 256 RPCs per connection.\n";
  BenchRecord record("fig5_shortlived");
  record.DetJson("points", points.str() + "]");
  record.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
