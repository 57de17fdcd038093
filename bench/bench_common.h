// Shared setup for the paper-figure regenerators: star-topology clusters
// shaped like the paper's testbed (one server with a 40G link, client
// machines with 10G links), RPC-echo and KV run drivers, and reduced/full
// scale selection (TAS_SCALE=full).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <iostream>
#include <memory>
#include <vector>

#include "src/app/kv_store.h"
#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

namespace tas {
namespace bench {

inline LinkConfig ServerLink() {
  LinkConfig link;
  link.gbps = 40.0;  // Paper: Intel XL710 40G on the server.
  link.propagation_delay = Us(1);
  link.queue_limit_pkts = 6000;  // Arista 7050S-class shared buffer.
  return link;
}

inline LinkConfig ClientLink() {
  LinkConfig link;
  link.gbps = 10.0;  // Paper: X520 10G on the clients.
  link.propagation_delay = Us(1);
  link.queue_limit_pkts = 6000;
  return link;
}

// A client machine that is never the bottleneck: engine stack with
// near-zero per-op costs on several cores. Used where the paper saturates
// the server from "as many client machines as necessary".
inline HostSpec IdealClientSpec(int app_cores = 4) {
  HostSpec spec;
  spec.stack = StackKind::kIx;
  spec.app_cores = app_cores;
  spec.engine_overridden = true;
  spec.engine = IxStackConfig();
  spec.engine.costs = &MinimalCostModel();
  spec.engine.tcp.tx_buffer_bytes = 16 * 1024;
  spec.engine.tcp.rx_buffer_bytes = 16 * 1024;
  return spec;
}

// Server host spec for a given stack kind with small per-connection buffers
// (RPC workloads; keeps 64K-connection experiments within memory).
inline HostSpec ServerSpec(StackKind kind, int app_cores, int stack_cores,
                           uint32_t buffer_bytes = 8 * 1024) {
  HostSpec spec;
  spec.stack = kind;
  spec.app_cores = app_cores;
  spec.stack_cores = stack_cores;
  if (kind == StackKind::kTas || kind == StackKind::kTasLowLevel) {
    spec.tas_overridden = true;
    spec.tas = TasConfig{};
    spec.tas.max_fastpath_cores = stack_cores;
    spec.tas.rx_buffer_bytes = buffer_bytes;
    spec.tas.tx_buffer_bytes = buffer_bytes;
    if (kind == StackKind::kTasLowLevel) {
      spec.tas.costs = &TasLowLevelCostModel();
    }
  } else {
    spec.engine_overridden = true;
    spec.engine = kind == StackKind::kLinux  ? LinuxStackConfig()
                  : kind == StackKind::kIx   ? IxStackConfig()
                                             : MtcpStackConfig(stack_cores);
    spec.engine.tcp.tx_buffer_bytes = buffer_bytes;
    spec.engine.tcp.rx_buffer_bytes = buffer_bytes;
  }
  return spec;
}

// Flow-table occupancy / probe report, captured from a TAS host's service
// after a run. One measurement path shared by fig4_connscale (per-row
// columns) and bench/million_flow_churn (gated JSON), so the two benches can
// never drift apart on how probe length is measured.
struct FlowTableReport {
  bool valid = false;  // False for baseline stacks (no TAS service).
  size_t flows = 0;
  size_t capacity = 0;
  double load_factor = 0;
  double avg_probe_groups = 0;  // Mean 16-slot groups examined per Find.
  uint64_t probe_p50 = 0;
  uint64_t probe_p99 = 0;
  uint64_t max_probe = 0;
  uint64_t rehashes = 0;
  uint64_t drift_rebuilds = 0;
};

inline FlowTableReport CaptureFlowTableReport(TasService* tas) {
  FlowTableReport r;
  if (tas == nullptr) {
    return r;
  }
  const FlowTable& t = tas->flow_table();
  r.valid = true;
  r.flows = t.size();
  r.capacity = t.capacity();
  r.load_factor = t.LoadFactor();
  r.avg_probe_groups = t.AvgProbeLength();
  r.probe_p50 = t.probe_hist().ApproxPercentile(50);
  r.probe_p99 = t.probe_hist().ApproxPercentile(99);
  r.max_probe = t.stats().max_probe;
  r.rehashes = t.stats().rehashes;
  r.drift_rebuilds = t.stats().drift_rebuilds;
  return r;
}

struct EchoRunConfig {
  StackKind server_stack = StackKind::kTas;
  int server_app_cores = 2;
  int server_stack_cores = 2;
  size_t connections = 256;
  size_t num_client_hosts = 4;
  size_t request_bytes = 64;
  size_t response_bytes = 64;
  size_t pipeline_depth = 1;
  size_t messages_per_connection = 0;
  uint64_t server_app_cycles = 680;
  EchoServerConfig::Mode mode = EchoServerConfig::Mode::kEcho;
  // Adaptive default: TAS handshakes run through the single slow-path core,
  // so large connection counts need a longer ramp (0 = auto).
  TimeNs warmup = 0;
  TimeNs measure = Ms(20);
  uint32_t buffer_bytes = 8 * 1024;
};

// tas.contexts.dropped_events: app events the host's full context queues
// refused over the whole run (0 for a non-TAS host).
inline uint64_t ContextDroppedEvents(TasService* tas) {
  uint64_t dropped = 0;
  if (tas != nullptr) {
    for (uint16_t id = 0; id < tas->num_contexts(); ++id) {
      dropped += tas->context(id)->dropped_events();
    }
  }
  return dropped;
}

struct EchoRunResult {
  double mops = 0;
  double median_us = 0;
  double p99_us = 0;
  uint64_t server_requests = 0;
  uint64_t reconnects = 0;
  uint64_t server_ctx_dropped_events = 0;  // tas.contexts.dropped_events.
  FlowTableReport server_flow_table;  // valid only for TAS servers.
};

inline EchoRunResult RunEcho(EchoRunConfig config) {
  if (config.warmup == 0) {
    // The TAS slow path accepts ~45k cycles/connection; ramp accordingly.
    config.warmup = Ms(10) + static_cast<TimeNs>(config.connections) * Us(30);
  }
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  specs.push_back(ServerSpec(config.server_stack, config.server_app_cores,
                             config.server_stack_cores, config.buffer_bytes));
  links.push_back(ServerLink());
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  EchoServerConfig server_config;
  server_config.request_bytes = config.request_bytes;
  server_config.response_bytes = config.response_bytes;
  server_config.app_cycles = config.server_app_cycles;
  server_config.mode = config.mode;
  EchoServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();

  std::vector<std::unique_ptr<EchoClient>> clients;
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    EchoClientConfig client_config;
    client_config.server_ip = exp->host(0).ip();
    client_config.num_connections =
        config.connections / config.num_client_hosts +
        (i < config.connections % config.num_client_hosts ? 1 : 0);
    client_config.request_bytes = config.request_bytes;
    client_config.response_bytes = config.response_bytes;
    client_config.pipeline_depth = config.pipeline_depth;
    client_config.messages_per_connection = config.messages_per_connection;
    client_config.mode = config.mode;
    client_config.connect_spread = config.warmup * 3 / 4;
    // Pre-establish quietly; 2ms of traffic settles the closed loop before
    // measurement starts.
    client_config.first_request_at = config.warmup - Ms(2);
    clients.push_back(std::make_unique<EchoClient>(
        &exp->sim(), exp->host(1 + i).stack(), client_config));
    clients.back()->Start();
  }

  exp->sim().RunUntil(config.warmup);
  for (auto& client : clients) {
    client->BeginMeasurement();
  }
  const uint64_t server_before = server.requests_served();
  exp->sim().RunUntil(config.warmup + config.measure);

  EchoRunResult result;
  double ops_per_sec = 0;
  for (auto& client : clients) {
    ops_per_sec += client->Throughput();
    result.reconnects += client->reconnects();
  }
  result.mops = ops_per_sec / 1e6;
  // Latency distribution from the first client host (load is uniform).
  result.median_us = clients[0]->latency().Median();
  result.p99_us = clients[0]->latency().Percentile(99);
  result.server_requests = server.requests_served() - server_before;
  result.server_flow_table = CaptureFlowTableReport(exp->host(0).tas());
  result.server_ctx_dropped_events = ContextDroppedEvents(exp->host(0).tas());
  if (config.mode == EchoServerConfig::Mode::kRxOnly) {
    // One-directional RX runs are measured at the server.
    result.mops = static_cast<double>(result.server_requests) / ToSec(config.measure) / 1e6;
  }
  return result;
}

struct KvRunConfig {
  StackKind server_stack = StackKind::kTas;
  int server_app_cores = 1;
  int server_stack_cores = 1;
  size_t connections = 256;
  size_t num_client_hosts = 4;
  StackKind client_stack = StackKind::kTas;  // kIx => ideal (cost-free) client.
  bool ideal_clients = true;
  size_t num_keys = 100000;
  size_t key_bytes = 32;
  size_t value_bytes = 64;
  double target_ops_per_sec = 0;  // 0 = closed loop.
  uint64_t server_app_cycles = 680;
  bool contended = false;
  TimeNs warmup = 0;
  TimeNs measure = Ms(20);
  uint32_t buffer_bytes = 8 * 1024;
};

struct KvRunResult {
  double mops = 0;
  double median_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;
  std::vector<std::pair<double, double>> latency_cdf;
};

inline KvRunResult RunKv(KvRunConfig config) {
  if (config.warmup == 0) {
    // The TAS slow path accepts ~45k cycles/connection; ramp accordingly.
    config.warmup = Ms(10) + static_cast<TimeNs>(config.connections) * Us(30);
  }
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  specs.push_back(ServerSpec(config.server_stack, config.server_app_cores,
                             config.server_stack_cores, config.buffer_bytes));
  links.push_back(ServerLink());
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    if (config.ideal_clients) {
      specs.push_back(IdealClientSpec());
    } else {
      specs.push_back(ServerSpec(config.client_stack, 2, 2, config.buffer_bytes));
    }
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  KvServerConfig server_config;
  server_config.num_keys = config.num_keys;
  server_config.key_bytes = config.key_bytes;
  server_config.value_bytes = config.value_bytes;
  server_config.app_cycles_per_op = config.server_app_cycles;
  server_config.contended = config.contended;
  std::unique_ptr<Core> lock_core;
  if (config.contended) {
    lock_core = std::make_unique<Core>(&exp->sim(), 9000, kCoreGhz);
    server_config.lock_core = lock_core.get();
  }
  KvServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();

  std::vector<std::unique_ptr<KvClient>> clients;
  for (size_t i = 0; i < config.num_client_hosts; ++i) {
    KvClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = config.connections / config.num_client_hosts +
                         (i < config.connections % config.num_client_hosts ? 1 : 0);
    cc.num_keys = config.num_keys;
    cc.key_bytes = config.key_bytes;
    cc.value_bytes = config.value_bytes;
    cc.target_ops_per_sec = config.target_ops_per_sec / static_cast<double>(config.num_client_hosts);
    cc.rng_seed = 42 + i;
    cc.connect_spread = config.warmup * 3 / 4;
    cc.first_request_at = config.warmup - Ms(2);
    clients.push_back(
        std::make_unique<KvClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }

  exp->sim().RunUntil(config.warmup);
  for (auto& client : clients) {
    client->BeginMeasurement();
  }
  exp->sim().RunUntil(config.warmup + config.measure);

  KvRunResult result;
  double ops = 0;
  for (auto& client : clients) {
    ops += client->Throughput();
  }
  result.mops = ops / 1e6;
  const LatencyRecorder& lat = clients[0]->latency();
  result.median_us = lat.Median();
  result.p90_us = lat.Percentile(90);
  result.p99_us = lat.Percentile(99);
  result.max_us = lat.Max();
  result.latency_cdf = lat.Cdf(100);
  return result;
}

// Marks the bench output so EXPERIMENTS.md can reference runs unambiguously.
inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::cout << "==============================================================\n"
            << experiment << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Scale: " << (FullScale() ? "full (TAS_SCALE=full)" : "reduced (default)")
            << "\n"
            << "==============================================================\n";
}

}  // namespace bench
}  // namespace tas

#endif  // BENCH_BENCH_COMMON_H_
