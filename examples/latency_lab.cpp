// Latency laboratory: per-packet latency anatomy (src/trace/latency) pointed
// at an incast. Four client hosts fire pipelined 64B echoes at one TAS
// server, and every packet's lifetime is decomposed into stage intervals —
// context-queue wait, fast-path TX service, egress-buffer wait, wire time,
// switch queueing, NIC RX ring wait, and receive-side processing — stamped
// in a side ring as the packet crosses each seam (paper Table 1 / Fig 9).
//
// The run prints the per-stage percentile table (p50/p90/p99/p99.9), the
// queue-wait vs service split, and dumps latency_lab.h0.* trace bundles:
// latency_lab.h0.latency.json holds the same report machine-readably, and
// latency_lab.h0.perfetto.json carries per-stage p50/p99 counter tracks
// plus queue-depth high-water gauges next to the usual core spans — open it
// in https://ui.perfetto.dev and watch switch_queue wait dominate the tail
// as the incast fans in.
//
// Run: ./build/examples/latency_lab
#include <cstdio>
#include <memory>
#include <vector>

#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/trace/latency.h"

int main() {
  using namespace tas;

  constexpr size_t kClientHosts = 4;
  constexpr size_t kConnsPerHost = 8;
  const TimeNs warmup = Ms(10);
  const TimeNs measure = Ms(30);

  // Server: TAS with stage stamping + the periodic sweep (the sweep is what
  // turns the histograms into Perfetto counter tracks over time).
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  server_spec.app_cores = 1;
  server_spec.stack_cores = 2;
  server_spec.tas_overridden = true;
  server_spec.tas = TasConfig{};
  server_spec.tas.max_fastpath_cores = 2;
  server_spec.tas.trace.latency_stages = true;
  server_spec.tas.trace.cpu_spans = true;
  server_spec.tas.trace.sample_period = Us(100);
  specs.push_back(server_spec);
  LinkConfig server_link;
  server_link.gbps = 10.0;
  server_link.propagation_delay = Us(1);
  server_link.queue_limit_pkts = 512;
  links.push_back(server_link);

  // Clients: TAS too, so their TX-side stamps (ctx_queue, fp_tx) land in the
  // journey — the first-constructed host (the server) owns the global sink.
  for (size_t i = 0; i < kClientHosts; ++i) {
    HostSpec client_spec;
    client_spec.stack = StackKind::kTasLowLevel;
    client_spec.app_cores = 1;
    client_spec.stack_cores = 1;
    specs.push_back(client_spec);
    links.push_back(server_link);
  }
  auto exp = Experiment::Star(specs, links);

  EchoServerConfig server_config;
  server_config.app_cycles = 250;
  EchoServer server(&exp->sim(), exp->host(0).stack(), server_config);
  server.Start();

  std::vector<std::unique_ptr<EchoClient>> clients;
  for (size_t i = 0; i < kClientHosts; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = kConnsPerHost;
    cc.pipeline_depth = 8;  // 4 hosts x 8 conns x depth 8: incast pressure.
    cc.connect_spread = warmup / 2;
    clients.push_back(
        std::make_unique<EchoClient>(&exp->sim(), exp->host(1 + i).stack(), cc));
    clients.back()->Start();
  }

  exp->sim().RunUntil(warmup + measure);

  uint64_t ops = 0;
  for (auto& client : clients) {
    ops += client->completed();
  }
  const LatencyTracer& lt = exp->host(0).tas()->tracer().latency();
  const LatencyReport report = lt.Report();
  std::printf("incast: %zu hosts x %zu conns, %llu echo ops in %lld ms\n\n",
              kClientHosts, kConnsPerHost, (unsigned long long)ops,
              (long long)((warmup + measure) / 1000000));
  std::printf("%s\n", report.ToTable().c_str());
  std::printf("records: %llu completed, %llu abandoned (drops), %llu ring-overwritten, "
              "%llu stale stamps, %llu partition mismatches\n",
              (unsigned long long)lt.completed(), (unsigned long long)lt.abandoned(),
              (unsigned long long)lt.overwritten(), (unsigned long long)lt.stale(),
              (unsigned long long)lt.partition_mismatches());

  const LatencyStageSummary* queue = report.Find("queue_wait");
  const LatencyStageSummary* e2e = report.Find("e2e");
  if (queue != nullptr && e2e != nullptr && e2e->mean_ns > 0) {
    std::printf("queue wait is %.0f%% of the mean end-to-end journey\n",
                100.0 * queue->mean_ns / e2e->mean_ns);
  }

  const size_t written = exp->WriteTraces("latency_lab");
  std::printf("\nwrote %zu trace bundles; the latency additions:\n", written);
  std::printf("  latency_lab.h0.latency.json    this report, one JSON object\n");
  std::printf("  latency_lab.h0.perfetto.json   latency.<stage>.p50_us/p99_us counter\n");
  std::printf("                                 tracks + queue high-water gauges\n");
  std::printf("\nSame seed => byte-identical reports on every run.\n");
  return 0;
}
