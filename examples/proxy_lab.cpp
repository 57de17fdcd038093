// Reverse-proxy lab: the src/proxy tier end to end on libTAS (DESIGN.md
// §11). A proxy host fronts an origin host; a client host drives zipf-
// popular GETs over churning keep-alive connections that half-close after
// their last request.
//
// The demo shows the cache warming up (hit rate per 50ms window), the three
// response paths (hit / miss-and-store / splice) diverging in the proxy's
// counters, the bounded origin pool absorbing thousands of client
// connections with a handful of upstream ones, and finishes with the
// proxy.* metric namespace as CI would scrape it.
//
// Run: ./build/examples/proxy_lab
#include <cstdio>
#include <iostream>
#include <memory>

#include "src/harness/experiment.h"
#include "src/harness/table.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"
#include "src/trace/metric_registry.h"

namespace {

using namespace tas;

HostSpec TasHost() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

}  // namespace

int main() {
  auto exp = Experiment::Star({TasHost(), TasHost(), TasHost()}, {LinkConfig{}});

  // Proxy on host 0: 256KB cache, bodies >= 8KB spliced client<-origin, at
  // most 8 pooled origin connections no matter how many clients arrive.
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 256 * 1024;
  proxy_cfg.splice_min_body = 8 * 1024;
  proxy_cfg.pool.max_conns = 8;
  proxy_cfg.pool.origin_ip = exp->host(1).ip();
  proxy_cfg.pool.origin_port = 8080;

  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 128;
  origin_cfg.body_spread = 16 * 1024;  // Mix of cacheable and splice-class.

  // 2000 short-lived clients, 64 alive at once, each half-closing right
  // after its 4th request and draining owed responses half-open.
  ProxyClientConfig client_cfg;
  client_cfg.proxy_ip = exp->host(0).ip();
  client_cfg.concurrency = 64;
  client_cfg.total_connections = 2000;
  client_cfg.requests_per_connection = 4;
  client_cfg.half_close = true;
  client_cfg.num_objects = 2000;
  client_cfg.zipf_skew = 0.9;
  client_cfg.min_body_bytes = origin_cfg.min_body_bytes;
  client_cfg.body_spread = origin_cfg.body_spread;

  ProxyServer proxy(&exp->sim(), exp->host(0).stack(), proxy_cfg);
  OriginServer origin(&exp->sim(), exp->host(1).stack(), origin_cfg);
  ProxyClientGen clients(&exp->sim(), exp->host(2).stack(), client_cfg);

  MetricRegistry registry;
  proxy.RegisterMetrics(registry);

  origin.Start();
  proxy.Start();
  clients.Start();
  clients.BeginMeasurement();  // Latency over the whole run.

  std::cout << "Cache warm-up (zipf 0.9 over 2000 objects, 256KB cache):\n";
  TablePrinter warmup({"window", "responses", "hit rate", "live clients", "pool conns"});
  uint64_t last_hits = 0;
  uint64_t last_accesses = 0;
  uint64_t last_responses = 0;
  const uint64_t target =
      client_cfg.total_connections * client_cfg.requests_per_connection;
  for (int w = 0; w < 40 && clients.completed() < target; ++w) {
    exp->sim().RunUntil(exp->sim().Now() + Ms(50));
    const HotObjectCacheStats& cs = proxy.cache().stats();
    const uint64_t accesses = cs.hits + cs.misses;
    const uint64_t d_hits = cs.hits - last_hits;
    const uint64_t d_acc = accesses - last_accesses;
    char label[32];
    std::snprintf(label, sizeof(label), "%d-%dms", w * 50, (w + 1) * 50);
    warmup.AddRow(label, proxy.responses() - last_responses,
                  d_acc == 0 ? std::string("-")
                             : Fmt(100.0 * static_cast<double>(d_hits) /
                                       static_cast<double>(d_acc),
                                   1) + "%",
                  proxy.live_clients(), proxy.pool().live_conns());
    last_hits = cs.hits;
    last_accesses = accesses;
    last_responses = proxy.responses();
  }
  warmup.Print();

  const HotObjectCacheStats& cs = proxy.cache().stats();
  const OriginPoolStats& ps = proxy.pool().stats();
  std::cout << "\nRun totals:\n";
  TablePrinter totals({"Metric", "Value"});
  totals.AddRow("client conns opened", clients.reconnects() + client_cfg.concurrency);
  totals.AddRow("requests completed", clients.completed());
  totals.AddRow("duplicates/mismatches/bad bodies",
                clients.duplicates() + clients.mismatches() + clients.bad_bodies());
  totals.AddRow("cache hits", cs.hits);
  totals.AddRow("cache misses", cs.misses);
  totals.AddRow("cache evictions", cs.evictions);
  totals.AddRow("cache bytes used", proxy.cache().bytes());
  totals.AddRow("spliced bytes (never copied)", proxy.spliced_bytes());
  totals.AddRow("origin conns opened", ps.opened);
  totals.AddRow("origin conns high-water", ps.conns_hw);
  totals.AddRow("origin requests pipelined onto live conns", ps.reused);
  totals.AddRow("idle origin conns reaped", ps.reaped);
  totals.AddRow("client p50 us", Fmt(clients.latency().Median() / 1000.0, 1));
  totals.AddRow("client p99 us", Fmt(clients.latency().Percentile(99) / 1000.0, 1));
  totals.Print();

  std::cout << "\nproxy.* metrics (MetricRegistry snapshot, JSONL):\n";
  registry.WriteJsonl(std::cout);
  return 0;
}
