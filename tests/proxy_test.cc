// Reverse-proxy tier tests (DESIGN.md §11): hot-object cache semantics, wire
// framing, and end-to-end client -> proxy -> origin behavior on TAS —
// hit/store/splice response paths, pipelined origin connection pooling under
// a hard bound, idle reaping, and same-seed determinism.
#include <gtest/gtest.h>

#include <memory>

#include "src/harness/experiment.h"
#include "src/proxy/object_cache.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/proxy_wire.h"

namespace tas {
namespace {

TEST(HotObjectCacheTest, LruEvictsOldestWithinByteBudget) {
  HotObjectCache cache(1000);
  cache.Insert(1, 400);
  cache.Insert(2, 400);
  uint32_t len = 0;
  EXPECT_TRUE(cache.Lookup(1, &len));  // Refresh 1: now 2 is LRU.
  EXPECT_EQ(len, 400u);
  cache.Insert(3, 400);  // 400+400+400 > 1000 -> evict 2.
  EXPECT_TRUE(cache.Lookup(1, &len));
  EXPECT_FALSE(cache.Lookup(2, &len));
  EXPECT_TRUE(cache.Lookup(3, &len));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.bytes(), 800u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(HotObjectCacheTest, OversizeObjectIsRejected) {
  HotObjectCache cache(100);
  cache.Insert(7, 101);
  uint32_t len = 0;
  EXPECT_FALSE(cache.Lookup(7, &len));
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(HotObjectCacheTest, RefreshKeepsSingleEntry) {
  HotObjectCache cache(1000);
  cache.Insert(5, 100);
  cache.Insert(5, 100);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 100u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ProxyWireTest, RequestRoundTrip) {
  uint8_t buf[kProxyRequestBytes];
  EncodeProxyRequest(buf, ProxyRequest{0xDEADBEEFu, 42});
  const ProxyRequest req = DecodeProxyRequest(buf);
  EXPECT_EQ(req.object_id, 0xDEADBEEFu);
  EXPECT_EQ(req.request_id, 42u);
}

TEST(ProxyWireTest, ResponseHeaderRoundTrip) {
  uint8_t buf[kProxyResponseHeader];
  EncodeProxyResponseHeader(buf, ProxyResponseHeader{kProxyStatusOk, 7, 123456});
  const ProxyResponseHeader hdr = DecodeProxyResponseHeader(buf);
  EXPECT_EQ(hdr.status, kProxyStatusOk);
  EXPECT_EQ(hdr.request_id, 7u);
  EXPECT_EQ(hdr.body_len, 123456u);
}

TEST(ProxyWireTest, ObjectBytesDeterministicAndBounded) {
  for (uint32_t id = 0; id < 1000; ++id) {
    const uint32_t a = ProxyObjectBytes(id, 64, 4096);
    EXPECT_EQ(a, ProxyObjectBytes(id, 64, 4096));
    EXPECT_GE(a, 64u);
    EXPECT_LT(a, 64u + 4096u);
  }
  EXPECT_EQ(ProxyObjectBytes(9, 128, 0), 128u);
}

// ---------------------------------------------------------------------------
// End-to-end fixtures: host 0 = proxy, host 1 = origin, host 2 = clients.

LinkConfig TestLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  link.rng_seed = 42;  // Fixed so same-seed runs are byte-identical.
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

struct ProxyRig {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<ProxyServer> proxy;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<ProxyClientGen> clients;
};

ProxyRig MakeRig(ProxyServerConfig proxy_cfg, OriginServerConfig origin_cfg,
                 ProxyClientConfig client_cfg) {
  ProxyRig rig;
  rig.exp = Experiment::Star({TasSpec(), TasSpec(), TasSpec()}, {TestLink()});
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

// Runs until the client generator completed `target` responses (or the
// deadline passes); returns whether the target was reached.
bool RunUntilCompleted(ProxyRig& rig, uint64_t target, TimeNs deadline) {
  while (rig.exp->sim().Now() < deadline && rig.clients->completed() < target) {
    rig.exp->sim().RunUntil(rig.exp->sim().Now() + Ms(10));
  }
  return rig.clients->completed() >= target;
}

TEST(ProxyE2eTest, MissesThenHitsServeFromCache) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 4 << 20;             // Everything fits.
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;     // Store path only.
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 200;
  origin_cfg.body_spread = 1000;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 4;
  client_cfg.total_connections = 0;  // Keep-alive, closed loop.
  client_cfg.num_objects = 20;       // Tiny universe -> guaranteed re-hits.
  client_cfg.zipf_skew = 0.9;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 400, Sec(10)));
  EXPECT_EQ(rig.clients->duplicates(), 0u);
  EXPECT_EQ(rig.clients->mismatches(), 0u);
  EXPECT_EQ(rig.clients->bad_bodies(), 0u);
  // At most one miss per object; everything else hit the cache.
  EXPECT_LE(rig.proxy->cache().stats().misses, 20u);
  EXPECT_GT(rig.proxy->cache().stats().hits, 300u);
  EXPECT_GE(rig.proxy->responses(), rig.clients->completed());
  // Origin only saw the cold fetches.
  EXPECT_LE(rig.origin->requests_served(), 20u);
}

TEST(ProxyE2eTest, LargeBodiesSpliceWithoutCaching) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 4 << 20;
  proxy_cfg.splice_min_body = 1;  // Everything splices.
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 8 * 1024;
  origin_cfg.body_spread = 8 * 1024;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 4;
  client_cfg.num_objects = 50;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 200, Sec(10)));
  EXPECT_EQ(rig.clients->bad_bodies(), 0u);
  EXPECT_EQ(rig.clients->duplicates(), 0u);
  EXPECT_GT(rig.proxy->spliced_bytes(), 200u * 8 * 1024);
  EXPECT_GT(rig.proxy->pool().stats().reused, 0u);
  // Spliced bodies bypass the cache entirely.
  EXPECT_EQ(rig.proxy->cache().stats().insertions, 0u);
  EXPECT_EQ(rig.proxy->cache().stats().hits, 0u);
}

TEST(ProxyE2eTest, OriginPoolHonorsBoundAndQueues) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 0;  // Never cache: every request goes to origin.
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  proxy_cfg.pool.max_conns = 2;
  proxy_cfg.pool.pipeline_depth = 2;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 500;
  origin_cfg.body_spread = 500;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 16;  // 16 clients x 4 deep >> 2 conns x 2 deep.
  client_cfg.pipeline_depth = 4;
  client_cfg.num_objects = 5000;  // Make repeat draws rare.
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 300, Sec(20)));
  EXPECT_LE(rig.proxy->pool().stats().conns_hw, 2u);
  EXPECT_GT(rig.proxy->pool().stats().queued_hw, 0u);
  EXPECT_GT(rig.proxy->pool().stats().reused, 0u);
  EXPECT_EQ(rig.clients->duplicates(), 0u);
  EXPECT_EQ(rig.clients->mismatches(), 0u);
  EXPECT_EQ(rig.clients->bad_bodies(), 0u);
}

TEST(ProxyE2eTest, IdleConnectionsAreReaped) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 0;
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  proxy_cfg.pool.idle_timeout = Ms(5);
  proxy_cfg.pool.reap_interval = Ms(1);
  OriginServerConfig origin_cfg;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 2;
  client_cfg.total_connections = 2;  // A short burst, then silence.
  client_cfg.requests_per_connection = 10;
  client_cfg.half_close = true;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 20, Sec(10)));
  rig.exp->sim().RunUntil(rig.exp->sim().Now() + Ms(200));
  EXPECT_GT(rig.proxy->pool().stats().reaped, 0u);
  EXPECT_EQ(rig.proxy->pool().live_conns(), 0u);
  // The half-closing clients were all answered in full.
  EXPECT_EQ(rig.clients->completed(), 20u);
  EXPECT_EQ(rig.clients->duplicates(), 0u);
}

TEST(ProxyE2eTest, ChurningClientsHalfCloseCleanly) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 1 << 20;
  proxy_cfg.splice_min_body = 2048;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 256;
  origin_cfg.body_spread = 4096;  // Mix of store- and splice-class bodies.
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 8;
  client_cfg.total_connections = 100;
  client_cfg.requests_per_connection = 5;
  client_cfg.half_close = true;
  client_cfg.num_objects = 200;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 500, Sec(30)));
  EXPECT_EQ(rig.clients->issued(), 500u);
  EXPECT_EQ(rig.clients->completed(), 500u);
  EXPECT_EQ(rig.clients->duplicates(), 0u);
  EXPECT_EQ(rig.clients->mismatches(), 0u);
  EXPECT_EQ(rig.clients->bad_bodies(), 0u);
  EXPECT_EQ(rig.proxy->aborted_clients(), 0u);
  // Both response machineries were exercised.
  EXPECT_GT(rig.proxy->responses(), 0u);
  EXPECT_GT(rig.proxy->spliced_bytes(), 0u);
  // All client conns drained and closed; no leaks on the proxy.
  rig.exp->sim().RunUntil(rig.exp->sim().Now() + Ms(100));
  EXPECT_EQ(rig.proxy->live_clients(), 0u);
}

struct DeterminismSample {
  uint64_t completed = 0;
  uint64_t hits = 0;
  uint64_t spliced = 0;
  uint64_t opened = 0;
  TimeNs end_time = 0;
};

DeterminismSample RunDeterministic() {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 256 * 1024;
  proxy_cfg.splice_min_body = 2048;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 256;
  origin_cfg.body_spread = 4096;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 6;
  client_cfg.total_connections = 60;
  client_cfg.requests_per_connection = 5;
  client_cfg.rng_seed = 12345;
  client_cfg.num_objects = 100;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);
  RunUntilCompleted(rig, 300, Sec(30));
  DeterminismSample s;
  s.completed = rig.clients->completed();
  s.hits = rig.proxy->cache().stats().hits;
  s.spliced = rig.proxy->spliced_bytes();
  s.opened = rig.proxy->pool().stats().opened;
  s.end_time = rig.exp->sim().Now();
  return s;
}

TEST(ProxyE2eTest, SameSeedRunsAreIdentical) {
  const DeterminismSample a = RunDeterministic();
  const DeterminismSample b = RunDeterministic();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.spliced, b.spliced);
  EXPECT_EQ(a.opened, b.opened);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(ProxyE2eTest, MetricsRegisterAndCount) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 1 << 20;
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  OriginServerConfig origin_cfg;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 2;
  client_cfg.num_objects = 10;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);
  MetricRegistry registry;
  rig.proxy->RegisterMetrics(registry);
  ASSERT_TRUE(registry.Has("proxy.requests"));
  ASSERT_TRUE(registry.Has("proxy.cache.hits"));
  ASSERT_TRUE(registry.Has("proxy.pool.reused"));
  ASSERT_TRUE(registry.Has("proxy.spliced_bytes"));
  ASSERT_TRUE(RunUntilCompleted(rig, 100, Sec(10)));
  double requests = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == "proxy.requests") {
      requests = s.value;
    }
  }
  EXPECT_GE(requests, 100.0);
}

// Proxy request/response flow events reach the tracer with the documented
// payload slots.
TEST(ProxyE2eTest, FlowTracerSeesProxyEvents) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 1 << 20;
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  OriginServerConfig origin_cfg;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 2;
  client_cfg.num_objects = 10;
  ProxyRig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);
  FlowTracer tracer;
  tracer.SetGlobal(true);
  rig.proxy->set_flow_tracer(&tracer);
  ASSERT_TRUE(RunUntilCompleted(rig, 50, Sec(10)));
  uint64_t reqs = 0;
  uint64_t resps = 0;
  for (const FlowEvent& e : tracer.Events()) {
    if (e.type == FlowEventType::kProxyRequest) {
      ++reqs;
    } else if (e.type == FlowEventType::kProxyResponse) {
      ++resps;
    }
  }
  EXPECT_GE(reqs, 50u);
  EXPECT_GE(resps, 50u);
}

}  // namespace
}  // namespace tas
