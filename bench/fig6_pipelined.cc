// Fig 6: pipelined RPC throughput for a single-threaded server, varying
// message size and per-RPC application processing (250 or 1000 cycles),
// split into receive-only and transmit-only directions, for TAS, mTCP, and
// Linux.
//
// Shape to reproduce: at small sizes TAS is several times Linux (RX ~4.5x,
// TX up to 12x) and ~1.5-2.6x mTCP; TAS reaches 40G line rate at 2KB with
// 250-cycle processing while Linux and mTCP stay near or below 10G.
#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

EchoRunResult RunPoint(StackKind kind, EchoServerConfig::Mode mode, size_t bytes,
                       uint64_t app_cycles) {
  EchoRunConfig config;
  config.server_stack = kind;
  config.server_app_cores = 1;  // Single-threaded server (paper).
  config.server_stack_cores = kind == StackKind::kMtcp ? 1 : 2;
  config.connections = 100;  // Paper: 100 connections over 4 client machines.
  config.num_client_hosts = 4;
  config.mode = mode;
  config.request_bytes = bytes;
  config.response_bytes = bytes;
  config.pipeline_depth = 16;
  config.server_app_cycles = app_cycles;
  config.buffer_bytes = 64 * 1024;
  config.warmup = Ms(15);
  config.measure = Ms(15);
  return RunEcho(config);
}

void RunDirection(EchoServerConfig::Mode mode, const char* label) {
  const size_t sizes[] = {32, 128, 512, 2048};
  for (uint64_t cycles : {uint64_t{250}, uint64_t{1000}}) {
    std::cout << "\n--- " << label << ", " << cycles << " cycles/message ---\n";
    // "TAS ctx drops" is the TAS server's tas.contexts.dropped_events: app
    // events refused by a full context queue (ROADMAP [wakeups]).
    TablePrinter table({"Size [B]", "TAS mOps", "mTCP mOps", "Linux mOps", "TAS Gbps",
                        "TAS ctx drops"});
    for (size_t size : sizes) {
      const EchoRunResult tas = RunPoint(StackKind::kTas, mode, size, cycles);
      const double mtcp = RunPoint(StackKind::kMtcp, mode, size, cycles).mops;
      const double linux = RunPoint(StackKind::kLinux, mode, size, cycles).mops;
      table.AddRow(size, Fmt(tas.mops, 2), Fmt(mtcp, 2), Fmt(linux, 2),
                   Fmt(tas.mops * 1e6 * static_cast<double>(size) * 8 / 1e9, 2),
                   tas.server_ctx_dropped_events);
    }
    table.Print();
  }
}

void Run() {
  PrintHeader("Fig 6: pipelined RPC throughput (one-directional)",
              "TAS paper Figure 6 (single-threaded server, 100 connections)");
  RunDirection(EchoServerConfig::Mode::kRxOnly, "RX: server only receives");
  RunDirection(EchoServerConfig::Mode::kTxOnly, "TX: server only transmits");
  std::cout << "\nPaper: RX small RPCs TAS ~4.5x Linux; TX small RPCs TAS up to 12.4x Linux\n"
               "and ~1.5x mTCP; TAS hits 40G at 2KB/250cyc, Linux/mTCP stay ~10G.\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
