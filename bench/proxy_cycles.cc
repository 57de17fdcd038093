// proxy_cycles: per-request CPU cost of the reverse-proxy tier, split by
// response path (cache hit / miss-and-store / splice), Table-1 style: the
// proxy host's cycle accounting per CpuModule divided by responses served.
//
// Three single-path rigs isolate the costs (tiny hot universe for pure hits;
// zero-byte cache for pure store misses; splice_min_body=1 for pure splice),
// then a churn scenario drives 10k short-lived half-closing clients through
// a <=64-connection origin pool across a zipf-alpha sweep with per-packet
// latency stage stamping enabled.
//
// The run self-gates (exit 1) on:
//   - non-distinct path costs (hit must undercut store; all three pairwise
//     distinct — splice skips the per-byte copy charge, so its proxy cost
//     must differ from the buffered store path),
//   - same-seed determinism (the hit rig runs twice; every reported number
//     must be byte-identical),
//   - churn correctness (every request answered exactly once, pool bound
//     respected) and the latency partition invariant
//     (partition_mismatches == 0 while stage stamping is on).
//
// Emits one BENCH_JSON record (bench/bench_record.h) whose det holds the
// path costs, the churn sweep and the alpha=0.9 critical-path report, which
// CI gates against bench/baselines/proxy_cycles.json; see EXPERIMENTS.md.
// Each churn row also holds the proxy and client hosts' slow-path
// exceptions per ConnState, each exception class's mean queue wait and
// their timeout retransmissions, so a change that moves closing-flow data
// back to the slow path names the moved state, and one that puts flow
// segments back behind connection set-up names the moved wait.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_record.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace bench {
namespace {

// All three path rigs serve the same body distribution (~4-8 KiB) so the
// per-request costs are comparable: the store/splice gap is then purely the
// per-byte copy charge the splice path avoids.
constexpr uint32_t kMinBody = 4096;
constexpr uint32_t kBodySpread = 4096;

LinkConfig ProxyLink() {
  LinkConfig link = ServerLink();
  link.rng_seed = 42;  // Fixed so same-seed runs are byte-identical.
  return link;
}

LinkConfig EdgeLink() {
  LinkConfig link = ClientLink();
  link.rng_seed = 43;
  return link;
}

HostSpec ProxyHostSpec(bool latency_stages, bool causal) {
  HostSpec spec = ServerSpec(StackKind::kTas, 1, 2, 64 * 1024);
  spec.tas.trace.latency_stages = latency_stages;
  // Request-level causal tracing (DESIGN.md §12). Queued requests can
  // outlive thousands of newer trace mints under overflow-queue pressure, so
  // give the churn run a 16k-slot ring to stay drop-free.
  spec.tas.trace.causal = causal;
  spec.tas.trace.causal_trace_capacity = 1u << 14;
  return spec;
}

struct Rig {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<ProxyServer> proxy;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<ProxyClientGen> clients;
};

// host 0 = proxy (measured), host 1 = origin, host 2 = clients.
Rig MakeRig(ProxyServerConfig proxy_cfg, OriginServerConfig origin_cfg,
            ProxyClientConfig client_cfg, bool latency_stages = false, bool causal = false) {
  Rig rig;
  rig.exp = Experiment::Star(
      {ProxyHostSpec(latency_stages, causal), ServerSpec(StackKind::kTas, 1, 2, 64 * 1024),
       ServerSpec(StackKind::kTas, 1, 2, 64 * 1024)},
      {ProxyLink(), EdgeLink(), EdgeLink()});
  proxy_cfg.pool.origin_ip = rig.exp->host(1).ip();
  proxy_cfg.pool.origin_port = origin_cfg.port;
  client_cfg.proxy_ip = rig.exp->host(0).ip();
  client_cfg.proxy_port = proxy_cfg.listen_port;
  client_cfg.min_body_bytes = origin_cfg.min_body_bytes;
  client_cfg.body_spread = origin_cfg.body_spread;
  rig.proxy = std::make_unique<ProxyServer>(&rig.exp->sim(), rig.exp->host(0).stack(), proxy_cfg);
  rig.origin =
      std::make_unique<OriginServer>(&rig.exp->sim(), rig.exp->host(1).stack(), origin_cfg);
  rig.clients =
      std::make_unique<ProxyClientGen>(&rig.exp->sim(), rig.exp->host(2).stack(), client_cfg);
  rig.origin->Start();
  rig.proxy->Start();
  rig.clients->Start();
  return rig;
}

struct PathResult {
  double per_module[kNumCpuModules] = {};
  double total = 0;        // Proxy-host cycles per response, all modules.
  uint64_t responses = 0;  // Responses in the measure window.
  uint64_t hits = 0;       // Cache hits in the window.
  uint64_t misses = 0;     // Cache misses in the window.
  uint64_t spliced_bytes = 0;
  double median_us = 0;
};

// Steady-state cost of one response path: warm up the rig (fills or bypasses
// the cache as configured), then charge the proxy host's cycle-counter delta
// to the responses completed in the measure window.
PathResult MeasurePath(ProxyServerConfig proxy_cfg, ProxyClientConfig client_cfg) {
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = kMinBody;
  origin_cfg.body_spread = kBodySpread;
  Rig rig = MakeRig(std::move(proxy_cfg), origin_cfg, std::move(client_cfg));

  const TimeNs warmup = Ms(20);
  const TimeNs measure = FullScale() ? Ms(100) : Ms(30);
  rig.exp->sim().RunUntil(warmup);

  rig.clients->BeginMeasurement();
  uint64_t before[kNumCpuModules];
  for (int m = 0; m < kNumCpuModules; ++m) {
    before[m] = rig.exp->host(0).TotalCycles(static_cast<CpuModule>(m));
  }
  const uint64_t responses_before = rig.proxy->responses();
  const HotObjectCacheStats cache_before = rig.proxy->cache().stats();
  const uint64_t spliced_before = rig.proxy->spliced_bytes();
  rig.exp->sim().RunUntil(warmup + measure);

  PathResult result;
  result.responses = rig.proxy->responses() - responses_before;
  result.hits = rig.proxy->cache().stats().hits - cache_before.hits;
  result.misses = rig.proxy->cache().stats().misses - cache_before.misses;
  result.spliced_bytes = rig.proxy->spliced_bytes() - spliced_before;
  result.median_us = rig.clients->latency().Median() / 1000.0;
  for (int m = 0; m < kNumCpuModules; ++m) {
    const uint64_t cycles = rig.exp->host(0).TotalCycles(static_cast<CpuModule>(m)) - before[m];
    result.per_module[m] = result.responses == 0
                               ? 0
                               : static_cast<double>(cycles) / static_cast<double>(result.responses);
    result.total += result.per_module[m];
  }
  return result;
}

ProxyClientConfig KeepAliveClients() {
  ProxyClientConfig cc;
  cc.concurrency = 16;
  cc.total_connections = 0;  // Keep-alive forever; steady state.
  cc.pipeline_depth = 4;
  cc.connect_spread = Ms(5);
  cc.first_request_at = Ms(8);
  return cc;
}

// Pure cache hits: a hot universe small enough that the warmup fills the
// cache completely; every measured request is then answered from memory.
PathResult MeasureHits() {
  ProxyServerConfig pc;
  pc.cache_bytes = 1 << 20;
  pc.splice_min_body = 0xFFFFFFFFu;
  ProxyClientConfig cc = KeepAliveClients();
  cc.num_objects = 16;
  return MeasurePath(pc, cc);
}

// Pure miss-and-store: a zero-byte cache rejects every insert, so each
// request crosses the pool and its body is copied through the proxy.
PathResult MeasureStores() {
  ProxyServerConfig pc;
  pc.cache_bytes = 0;
  pc.splice_min_body = 0xFFFFFFFFu;
  ProxyClientConfig cc = KeepAliveClients();
  cc.num_objects = 4096;
  cc.zipf_skew = 0.01;  // Near-uniform: no accidental single-flight coalescing.
  return MeasurePath(pc, cc);
}

// Pure splice: every body is forwarded client<-origin inside the stack;
// the proxy never touches the payload bytes.
PathResult MeasureSplices() {
  ProxyServerConfig pc;
  pc.cache_bytes = 0;
  pc.splice_min_body = 1;
  ProxyClientConfig cc = KeepAliveClients();
  cc.num_objects = 4096;
  cc.zipf_skew = 0.01;
  return MeasurePath(pc, cc);
}

struct ChurnResult {
  double alpha = 0;
  uint64_t target = 0;
  uint64_t completed = 0;
  uint64_t issued = 0;
  uint64_t duplicates = 0;
  uint64_t mismatches = 0;
  uint64_t bad_bodies = 0;
  uint64_t retries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;  // (from pool reuse; see stats below)
  uint64_t pool_opened = 0;
  uint64_t pool_conns_hw = 0;
  uint64_t spliced_bytes = 0;
  uint64_t latency_records = 0;
  uint64_t partition_mismatches = 0;
  // Request-level causal tracing health (DESIGN.md §12).
  uint64_t causal_completed = 0;
  uint64_t causal_mismatches = 0;
  uint64_t causal_dropped = 0;
  uint64_t causal_truncated = 0;
  uint64_t trace_mismatches = 0;  // Responses whose trace id did not echo.
  // Slow-path exceptions per ConnState and RTO retransmissions on the proxy
  // (host 0) and client (host 2) hosts: where closing flows' segments go.
  TasStats proxy_stats;
  TasStats client_stats;
  // Each of those hosts' slow-path executor over the churn: how far its
  // core's booked work ran ahead of the clock, its busy fraction, and the
  // work items still queued when the last response arrived.
  std::string slowpath_json;
  std::string critpath_json;      // CriticalPathReport::ToJson().
  std::string critpath_table;     // CriticalPathReport::ToTable().
  std::vector<std::string> classes_seen;
  double hit_rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  TimeNs finished_at = 0;
  uint64_t wall_ns = 0;  // Host wall clock spent in the churn loop.
  bool drained = false;
};

// The ISSUE scenario: 10k short-lived clients (half-close after their last
// request) funneled through a <=64-connection origin pool, with per-packet
// latency stage stamping on the proxy host. The latency partition invariant
// (stage intervals sum exactly to end-to-end time) must survive the churn.
ChurnResult RunChurn(double alpha) {
  ProxyServerConfig pc;
  pc.cache_bytes = 256 * 1024;
  // Low enough that the body spread (64..2112) produces all three response
  // paths — the per-class critical-path report needs splice traffic too.
  pc.splice_min_body = 1024;
  pc.pool.max_conns = 64;
  OriginServerConfig oc;
  oc.min_body_bytes = 64;
  oc.body_spread = 2048;
  ProxyClientConfig cc;
  cc.concurrency = 256;
  cc.total_connections = 10000;
  cc.requests_per_connection = FullScale() ? 6 : 2;
  cc.half_close = true;
  cc.pipeline_depth = 2;
  cc.num_objects = 4096;
  cc.zipf_skew = alpha;
  cc.connect_spread = Ms(10);
  Rig rig = MakeRig(pc, oc, cc, /*latency_stages=*/true, /*causal=*/true);
  rig.clients->BeginMeasurement();  // Record latency for the whole run.

  ChurnResult result;
  result.alpha = alpha;
  result.target = cc.total_connections * cc.requests_per_connection;
  const TimeNs deadline = Sec(300);
  const TimeNs churn_start = rig.exp->sim().Now();
  const TimeNs proxy_busy_start = rig.exp->host(0).tas()->slowpath_cpu()->busy_ns();
  const TimeNs client_busy_start = rig.exp->host(2).tas()->slowpath_cpu()->busy_ns();
  const auto wall_start = std::chrono::steady_clock::now();
  while (rig.exp->sim().Now() < deadline && rig.clients->completed() < result.target) {
    rig.exp->sim().RunUntil(rig.exp->sim().Now() + Ms(10));
  }
  result.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  result.drained = rig.clients->completed() >= result.target;
  result.completed = rig.clients->completed();
  result.issued = rig.clients->issued();
  result.duplicates = rig.clients->duplicates();
  result.mismatches = rig.clients->mismatches();
  result.bad_bodies = rig.clients->bad_bodies();
  result.retries = rig.clients->retries();
  result.cache_hits = rig.proxy->cache().stats().hits;
  result.cache_misses = rig.proxy->cache().stats().misses;
  result.pool_opened = rig.proxy->pool().stats().opened;
  result.pool_conns_hw = rig.proxy->pool().stats().conns_hw;
  result.spliced_bytes = rig.proxy->spliced_bytes();
  const uint64_t accesses = result.cache_hits + result.cache_misses;
  result.hit_rate =
      accesses == 0 ? 0 : static_cast<double>(result.cache_hits) / static_cast<double>(accesses);
  result.p50_us = rig.clients->latency().Median() / 1000.0;
  result.p99_us = rig.clients->latency().Percentile(99) / 1000.0;
  result.finished_at = rig.exp->sim().Now();
  const LatencyTracer& lat = rig.exp->host(0).tas()->tracer().latency();
  result.latency_records = lat.completed();
  result.partition_mismatches = lat.partition_mismatches();
  const CausalTracer& ct = rig.exp->host(0).tas()->tracer().causal();
  result.causal_completed = ct.completed();
  result.causal_mismatches = ct.critical_path_mismatches();
  result.causal_dropped = ct.dropped();
  result.causal_truncated = ct.truncated();
  result.trace_mismatches = rig.clients->trace_mismatches();
  result.proxy_stats = rig.exp->host(0).tas()->stats();
  result.client_stats = rig.exp->host(2).tas()->stats();
  std::ostringstream sp;
  for (const int host : {0, 2}) {
    TasService* tas = rig.exp->host(host).tas();
    const Core* core = tas->slowpath_cpu();
    sp << (host == 0 ? "{\"proxy\":" : ",\"client\":")
       << "{\"max_ahead_ns\":" << core->max_ahead_ns() << ",\"busy_frac\":"
       << core->Utilization(host == 0 ? proxy_busy_start : client_busy_start, churn_start,
                            result.finished_at)
       << ",\"queued\":" << tas->slow_path()->exception_depth() << "}";
  }
  result.slowpath_json = sp.str() + "}";
  const CriticalPathReport report = ct.Report();
  result.critpath_json = report.ToJson();
  result.critpath_table = report.ToTable();
  for (const CriticalPathClassSummary& cls : report.classes) {
    result.classes_seen.push_back(cls.request_class);
  }
  return result;
}

std::string Fingerprint(const PathResult& r) {
  std::ostringstream os;
  os << r.responses << '|' << r.hits << '|' << r.misses << '|' << r.spliced_bytes << '|'
     << r.median_us;
  for (int m = 0; m < kNumCpuModules; ++m) {
    os << '|' << r.per_module[m];
  }
  return os.str();
}

// {"proxy":{...},"client":{...}} with `field` of each host's stats.
template <typename Field>
std::string PerHostJson(const ChurnResult& c, Field field) {
  std::ostringstream os;
  os << "{\"proxy\":" << field(c.proxy_stats) << ",\"client\":" << field(c.client_stats) << "}";
  return os.str();
}

std::string ExceptionsByStateJson(const TasStats& stats) {
  std::ostringstream os;
  for (size_t i = 0; i < kNumConnStates; ++i) {
    os << (i == 0 ? "{" : ",") << "\"" << ConnStateKey(static_cast<ConnState>(i))
       << "\":" << stats.exceptions_by_state[i];
  }
  os << "}";
  return os.str();
}

// {"flow":<ns>,"setup":<ns>}: each slow-path work class's mean wait, from
// enqueue to the end of the item's charge.
std::string ExceptionWaitJson(const TasStats& stats) {
  std::ostringstream os;
  for (const ExceptionClass c : {ExceptionClass::kFlow, ExceptionClass::kSetup}) {
    const size_t i = static_cast<size_t>(c);
    const uint64_t count = stats.exception_count[i];
    os << (c == ExceptionClass::kFlow ? "{\"flow\":" : ",\"setup\":")
       << (count == 0 ? 0 : stats.exception_wait_ns[i] / count);
  }
  os << "}";
  return os.str();
}

bool Distinct(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0 && std::abs(a - b) / hi > 0.02;  // >2% apart.
}

int Run() {
  PrintHeader("proxy_cycles: reverse-proxy per-request cycle anatomy",
              "TAS paper Table 1 method applied to the src/proxy tier");

  const PathResult hit = MeasureHits();
  const PathResult store = MeasureStores();
  const PathResult splice = MeasureSplices();
  // Same-seed determinism: the whole breakdown must be byte-identical.
  const PathResult hit2 = MeasureHits();
  const bool deterministic = Fingerprint(hit) == Fingerprint(hit2);

  TablePrinter table({"Module", "hit c/req", "store c/req", "splice c/req"});
  for (int m = 0; m < kNumCpuModules; ++m) {
    table.AddRow(CpuModuleName(static_cast<CpuModule>(m)), Fmt(hit.per_module[m], 1),
                 Fmt(store.per_module[m], 1), Fmt(splice.per_module[m], 1));
  }
  table.AddRow("Total", Fmt(hit.total, 1), Fmt(store.total, 1), Fmt(splice.total, 1));
  table.AddRow("responses", hit.responses, store.responses, splice.responses);
  table.AddRow("median us", Fmt(hit.median_us, 1), Fmt(store.median_us, 1),
               Fmt(splice.median_us, 1));
  table.Print();

  std::cout << "\nChurn: 10k half-closing clients, <=64 origin conns, zipf sweep\n";
  const double alphas[] = {0.6, 0.9, 1.2};
  std::vector<ChurnResult> churn;
  for (double alpha : alphas) {
    churn.push_back(RunChurn(alpha));
  }
  TablePrinter churn_table({"alpha", "completed", "hit rate", "pool hw", "p50 us", "p99 us",
                            "partition mm", "critpath mm"});
  for (const ChurnResult& c : churn) {
    churn_table.AddRow(Fmt(c.alpha, 1), c.completed, Fmt(c.hit_rate * 100, 1) + "%",
                       c.pool_conns_hw, Fmt(c.p50_us, 1), Fmt(c.p99_us, 1),
                       c.partition_mismatches, c.causal_mismatches);
  }
  churn_table.Print();

  // Per-class critical-path anatomy of the middle (alpha=0.9) run — the
  // breakdown the record's det.critical_path holds.
  std::cout << "\nCritical-path breakdown (alpha=0.9 churn):\n"
            << churn[1].critpath_table;

  // --- Gates ---
  std::vector<std::string> failures;
  if (hit.responses == 0 || store.responses == 0 || splice.responses == 0) {
    failures.push_back("a path rig completed zero responses");
  }
  if (hit.misses != 0) {
    failures.push_back("hit rig was not pure (cache misses in measure window)");
  }
  if (store.hits != 0 || splice.spliced_bytes == 0) {
    failures.push_back("store/splice rigs were not pure");
  }
  if (!(hit.total < store.total)) {
    failures.push_back("cache hit is not cheaper than miss-and-store");
  }
  if (!Distinct(hit.total, store.total) || !Distinct(store.total, splice.total) ||
      !Distinct(hit.total, splice.total)) {
    failures.push_back("hit/store/splice per-request costs are not distinct");
  }
  if (!deterministic) {
    failures.push_back("same-seed re-run changed the breakdown: " + Fingerprint(hit) +
                       " vs " + Fingerprint(hit2));
  }
  for (const ChurnResult& c : churn) {
    std::ostringstream tag;
    tag << "churn alpha=" << c.alpha << ": ";
    if (!c.drained || c.completed != c.target || c.issued != c.target) {
      failures.push_back(tag.str() + "lost requests (completed " +
                         std::to_string(c.completed) + "/" + std::to_string(c.target) + ")");
    }
    if (c.duplicates != 0 || c.mismatches != 0 || c.bad_bodies != 0) {
      failures.push_back(tag.str() + "exactly-once violated");
    }
    if (c.pool_conns_hw > 64) {
      failures.push_back(tag.str() + "origin pool exceeded its 64-conn bound");
    }
    if (c.latency_records == 0 || c.partition_mismatches != 0) {
      failures.push_back(tag.str() + "latency partition check failed (" +
                         std::to_string(c.partition_mismatches) + " mismatches over " +
                         std::to_string(c.latency_records) + " records)");
    }
    if (c.causal_completed == 0 || c.causal_mismatches != 0) {
      failures.push_back(tag.str() + "critical-path partition check failed (" +
                         std::to_string(c.causal_mismatches) + " mismatches over " +
                         std::to_string(c.causal_completed) + " traces)");
    }
    if (c.causal_dropped != 0 || c.causal_truncated != 0) {
      failures.push_back(tag.str() + "causal ring overflowed (dropped " +
                         std::to_string(c.causal_dropped) + ", truncated " +
                         std::to_string(c.causal_truncated) + ")");
    }
    if (c.trace_mismatches != 0) {
      failures.push_back(tag.str() + "responses failed to echo their trace id");
    }
  }
  // The gate baseline needs every request class; the alpha=0.9 workload is
  // sized to produce all four.
  for (const char* want : {"hit", "store", "splice", "coalesced"}) {
    if (std::find(churn[1].classes_seen.begin(), churn[1].classes_seen.end(), want) ==
        churn[1].classes_seen.end()) {
      failures.push_back(std::string("churn alpha=0.9 produced no '") + want +
                         "' class traffic");
    }
  }

  BenchRecord record("proxy_cycles");
  record.Det("body_min", kMinBody);
  record.Det("body_spread", kBodySpread);
  record.Det("deterministic", deterministic);
  const PathResult* paths[] = {&hit, &store, &splice};
  const char* names[] = {"hit", "store", "splice"};
  for (int p = 0; p < 3; ++p) {
    std::ostringstream json;
    json << "{\"cycles_per_request\":" << paths[p]->total
         << ",\"responses\":" << paths[p]->responses
         << ",\"median_us\":" << paths[p]->median_us << ",\"modules\":{";
    for (int m = 0; m < kNumCpuModules; ++m) {
      json << (m == 0 ? "" : ",") << "\"" << CpuModuleName(static_cast<CpuModule>(m))
           << "\":" << paths[p]->per_module[m];
    }
    json << "}}";
    record.DetJson(names[p], json.str());
  }
  std::ostringstream det_churn;
  std::ostringstream wall_churn;
  uint64_t total_wall_ns = 0;
  for (size_t i = 0; i < churn.size(); ++i) {
    const ChurnResult& c = churn[i];
    det_churn << (i == 0 ? "[" : ",") << "{\"alpha\":" << c.alpha << ",\"target\":" << c.target
              << ",\"completed\":" << c.completed << ",\"duplicates\":" << c.duplicates
              << ",\"mismatches\":" << c.mismatches << ",\"bad_bodies\":" << c.bad_bodies
              << ",\"retries\":" << c.retries << ",\"cache_hit_rate\":" << c.hit_rate
              << ",\"pool_opened\":" << c.pool_opened
              << ",\"pool_conns_hw\":" << c.pool_conns_hw
              << ",\"spliced_bytes\":" << c.spliced_bytes << ",\"p50_us\":" << c.p50_us
              << ",\"p99_us\":" << c.p99_us << ",\"latency_records\":" << c.latency_records
              << ",\"partition_mismatches\":" << c.partition_mismatches
              << ",\"causal_completed\":" << c.causal_completed
              << ",\"causal_mismatches\":" << c.causal_mismatches
              << ",\"exceptions\":" << PerHostJson(c, ExceptionsByStateJson)
              << ",\"exception_wait_mean_ns\":" << PerHostJson(c, ExceptionWaitJson)
              << ",\"slowpath\":" << c.slowpath_json
              << ",\"timeout_retransmits\":"
              << PerHostJson(c, [](const TasStats& s) { return s.timeout_retransmits; })
              << ",\"sim_ms\":" << c.finished_at / 1000000 << "}";
    wall_churn << (i == 0 ? "[" : ",") << "{\"wall_ns\":" << c.wall_ns << "}";
    total_wall_ns += c.wall_ns;
  }
  record.DetJson("churn", det_churn.str() + "]");
  record.Det("gates_failed", failures.size());
  record.DetJson("critical_path", churn[1].critpath_json);
  record.Wall("wall_ns", total_wall_ns);
  record.WallJson("churn", wall_churn.str() + "]");
  record.Print();

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::cerr << "PROXY_CYCLES_GATE_FAIL: " << f << "\n";
    }
    return 1;
  }
  std::cout << "proxy_cycles: all gates passed\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { return tas::bench::Run(); }
