// Origin-pool chaos: the reverse proxy's pooled origin connections must
// survive packet loss, link flaps, and origin-side connection churn without
// losing or double-dispatching a single client request. The client generator
// verifies exactly-once end to end (FIFO request-id matching + a global
// responded set + deterministic body sizes), so these tests simply turn the
// fault machinery loose and assert the ledger balances.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/injector.h"
#include "src/harness/experiment.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"

namespace tas {
namespace {

LinkConfig ChaosLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  // Default seed: identity-derived, so impairment draws match across rigs.
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

struct Rig {
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<ProxyServer> proxy;
  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<ProxyClientGen> clients;
};

Rig MakeRig(ProxyServerConfig proxy_cfg, OriginServerConfig origin_cfg,
            ProxyClientConfig client_cfg) {
  Rig rig;
  rig.exp = Experiment::Star({TasSpec(), TasSpec(), TasSpec()}, {ChaosLink()});
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

bool RunUntilCompleted(Rig& rig, uint64_t target, TimeNs deadline) {
  while (rig.exp->sim().Now() < deadline && rig.clients->completed() < target) {
    rig.exp->sim().RunUntil(rig.exp->sim().Now() + Ms(10));
  }
  return rig.clients->completed() >= target;
}

void ExpectExactlyOnce(Rig& rig, uint64_t expected) {
  EXPECT_EQ(rig.clients->issued(), expected);
  EXPECT_EQ(rig.clients->completed(), expected);
  EXPECT_EQ(rig.clients->duplicates(), 0u);
  EXPECT_EQ(rig.clients->mismatches(), 0u);
  EXPECT_EQ(rig.clients->bad_bodies(), 0u);
}

// Origin closes every pooled connection after a handful of responses: the
// pool must retire and re-establish connections continuously, re-dispatching
// any request stranded behind a FIN, without dropping or duplicating one.
TEST(ProxyChaosTest, OriginConnectionChurnKeepsExactlyOnce) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 0;  // Every request crosses the pool.
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  proxy_cfg.pool.max_conns = 4;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 300;
  origin_cfg.body_spread = 700;
  origin_cfg.close_after_requests = 7;  // Aggressive churn.
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 8;
  client_cfg.total_connections = 80;
  client_cfg.requests_per_connection = 5;
  client_cfg.num_objects = 1000;
  Rig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  ASSERT_TRUE(RunUntilCompleted(rig, 400, Sec(60)));
  ExpectExactlyOnce(rig, 400);
  // The churn actually happened: conns retired and were re-opened.
  EXPECT_GT(rig.origin->conns_closed_by_quota(), 10u);
  EXPECT_GT(rig.proxy->pool().stats().retired, 10u);
  EXPECT_GT(rig.proxy->pool().stats().opened, rig.proxy->pool().stats().retired);
  EXPECT_LE(rig.proxy->pool().stats().conns_hw, 4u);
}

// Bernoulli loss window on the origin link: retransmission keeps pooled
// conns alive through it, and the request ledger still balances.
TEST(ProxyChaosTest, LossWindowOnOriginLink) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 0;
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  proxy_cfg.pool.max_conns = 8;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 400;
  origin_cfg.body_spread = 800;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 8;
  client_cfg.total_connections = 60;
  client_cfg.requests_per_connection = 5;
  client_cfg.num_objects = 500;
  Rig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  FaultSchedule chaos;
  chaos.ImpairmentWindowBoth(Ms(5), Ms(120), rig.exp->host_link(1), BernoulliLoss(0.05));
  rig.exp->faults().Install(std::move(chaos));

  ASSERT_TRUE(RunUntilCompleted(rig, 300, Sec(60)));
  ExpectExactlyOnce(rig, 300);
}

// Hard link flap on the origin link mid-run plus origin-side churn: dead
// conns get redispatched, the pool re-establishes, nothing is lost.
TEST(ProxyChaosTest, OriginLinkFlapWithChurn) {
  ProxyServerConfig proxy_cfg;
  proxy_cfg.cache_bytes = 0;
  proxy_cfg.splice_min_body = 0xFFFFFFFFu;
  proxy_cfg.pool.max_conns = 6;
  OriginServerConfig origin_cfg;
  origin_cfg.min_body_bytes = 300;
  origin_cfg.body_spread = 400;
  origin_cfg.close_after_requests = 9;
  ProxyClientConfig client_cfg;
  client_cfg.concurrency = 6;
  client_cfg.total_connections = 60;
  client_cfg.requests_per_connection = 5;
  client_cfg.num_objects = 500;
  Rig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);

  FaultSchedule chaos;
  chaos.LinkFlap(Ms(20), Ms(15), rig.exp->host_link(1));
  chaos.LinkFlap(Ms(80), Ms(10), rig.exp->host_link(1));
  rig.exp->faults().Install(std::move(chaos));

  ASSERT_TRUE(RunUntilCompleted(rig, 300, Sec(120)));
  ExpectExactlyOnce(rig, 300);
  EXPECT_GT(rig.proxy->pool().stats().retired, 0u);
  // Determinism under chaos: a second identical run lands identically.
}

// Same chaos scenario twice with one seed: byte-for-byte identical outcome.
TEST(ProxyChaosTest, ChaosRunsAreDeterministic) {
  auto run = [] {
    ProxyServerConfig proxy_cfg;
    proxy_cfg.cache_bytes = 64 * 1024;
    proxy_cfg.splice_min_body = 0xFFFFFFFFu;
    proxy_cfg.pool.max_conns = 4;
    OriginServerConfig origin_cfg;
    origin_cfg.close_after_requests = 6;
    ProxyClientConfig client_cfg;
    client_cfg.concurrency = 4;
    client_cfg.total_connections = 40;
    client_cfg.requests_per_connection = 5;
    client_cfg.rng_seed = 777;
    client_cfg.num_objects = 300;
    Rig rig = MakeRig(proxy_cfg, origin_cfg, client_cfg);
    FaultSchedule chaos;
    chaos.ImpairmentWindowBoth(Ms(5), Ms(60), rig.exp->host_link(1), BernoulliLoss(0.03));
    rig.exp->faults().Install(std::move(chaos));
    RunUntilCompleted(rig, 200, Sec(60));
    return std::tuple<uint64_t, uint64_t, uint64_t, TimeNs>(
        rig.clients->completed(), rig.proxy->pool().stats().opened,
        rig.proxy->pool().stats().redispatched, rig.exp->sim().Now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tas
