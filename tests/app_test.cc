// Application-level integration tests: the RPC echo pair, the key-value
// store (correctness, mix, contention), bulk transfer, and the FlexStorm
// pipeline, each across the relevant stacks, and the apps' close handlers.
#include <gtest/gtest.h>

#include "src/app/bulk.h"
#include "src/app/flexstorm.h"
#include "src/app/kv_store.h"
#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"

namespace tas {
namespace {

LinkConfig FastLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  return link;
}

// Sits between a stack and the app that registered with it: forwards every
// callback to the app, records the connections that opened, and counts the
// close callbacks the app received.
class CloseSpy : public AppHandler {
 public:
  // Installs the spy in front of `app`, which must be the stack's handler.
  CloseSpy(Stack* stack, AppHandler* app) : app_(app) { stack->SetHandler(this); }

  void OnConnected(ConnId conn, bool success) override {
    if (success) {
      connected.push_back(conn);
    }
    app_->OnConnected(conn, success);
  }
  void OnAccepted(ConnId conn, uint16_t port) override {
    accepted.push_back(conn);
    app_->OnAccepted(conn, port);
  }
  void OnData(ConnId conn, size_t bytes) override { app_->OnData(conn, bytes); }
  void OnSendSpace(ConnId conn, size_t bytes) override { app_->OnSendSpace(conn, bytes); }
  void OnRemoteClosed(ConnId conn) override {
    ++remote_closed;
    app_->OnRemoteClosed(conn);
  }
  void OnClosed(ConnId conn) override {
    ++closed;
    app_->OnClosed(conn);
  }

  std::vector<ConnId> connected;
  std::vector<ConnId> accepted;
  size_t remote_closed = 0;
  size_t closed = 0;

 private:
  AppHandler* app_;
};

class EchoOnStackTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(EchoOnStackTest, ClosedLoopEchoCompletes) {
  constexpr size_t kConnections = 8;
  HostSpec server_spec;
  server_spec.stack = GetParam();
  server_spec.app_cores = 2;
  HostSpec client_spec;
  client_spec.stack = GetParam();
  client_spec.app_cores = 2;
  auto exp = Experiment::PointToPoint(server_spec, client_spec, FastLink());

  EchoServerConfig sc;
  sc.request_bytes = 64;
  sc.response_bytes = 64;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();

  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = kConnections;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();

  exp->sim().RunUntil(Ms(50));
  client.BeginMeasurement();
  exp->sim().RunUntil(Ms(100));
  EXPECT_GT(client.Throughput(), 1000.0) << "echo loop stalled";
  EXPECT_GT(client.latency().Median(), 0.0);
  // The app-event loop's invariant: a core gathers its next batch only once
  // the previous dispatch has run, so its booked work stays within one
  // batch. At depth 1 a batch holds at most one request per connection, and
  // no stack spends kMaxRequestCycles (above Table 1's Linux total) on one.
  constexpr uint64_t kMaxRequestCycles = 25000;
  for (size_t i = 0; i < exp->host(0).num_app_cores(); ++i) {
    const Core* core = exp->host(0).app_core(i);
    EXPECT_LE(core->max_ahead_ns(), core->CyclesToTime(kConnections * kMaxRequestCycles))
        << "app core " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStacks, EchoOnStackTest,
                         ::testing::Values(StackKind::kTas, StackKind::kTasLowLevel,
                                           StackKind::kLinux, StackKind::kIx,
                                           StackKind::kMtcp));

// Fig 6's RX 32 B point at 1000 cycles on a smaller rig: a one-app-core
// mTCP server behind ideal clients serves no more messages than its core's
// cycles allow (each costs 1000 app cycles x mTCP's app-interference factor).
TEST(EchoTest, PipelinedRxOnMtcpStaysUnderTheAppCoreCap) {
  constexpr uint64_t kAppCycles = 1000;
  constexpr TimeNs kWarmup = Ms(10);
  constexpr TimeNs kWindow = Ms(10);
  HostSpec server_spec;
  server_spec.stack = StackKind::kMtcp;
  server_spec.app_cores = 1;
  server_spec.stack_cores = 1;
  HostSpec client_spec;
  client_spec.stack = StackKind::kIx;
  client_spec.app_cores = 4;
  client_spec.engine_overridden = true;
  client_spec.engine = IxStackConfig();
  client_spec.engine.costs = &MinimalCostModel();
  auto exp = Experiment::PointToPoint(server_spec, client_spec, FastLink());

  EchoServerConfig sc;
  sc.request_bytes = 32;
  sc.app_cycles = kAppCycles;
  sc.mode = EchoServerConfig::Mode::kRxOnly;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 32;
  cc.request_bytes = 32;
  cc.pipeline_depth = 16;
  cc.mode = EchoServerConfig::Mode::kRxOnly;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();

  exp->sim().RunUntil(kWarmup);
  const uint64_t served_before = server.requests_served();
  exp->sim().RunUntil(kWarmup + kWindow);
  const uint64_t served = server.requests_served() - served_before;
  const double cap = kCoreGhz * 1e9 /
                     (static_cast<double>(kAppCycles) * MtcpCostModel().app_interference_factor) *
                     ToSec(kWindow);
  EXPECT_GT(served, 0u);
  EXPECT_LE(static_cast<double>(served), cap);
}

TEST(EchoTest, ShortLivedConnectionsReconnect) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  EchoServerConfig sc;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 4;
  cc.messages_per_connection = 3;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(200));
  EXPECT_GT(client.reconnects(), 10u);
  EXPECT_GT(client.completed(), client.reconnects() * 3 - 4);
}

TEST(EchoTest, PipelinedDepthIncreasesThroughput) {
  auto run = [](size_t depth) {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    auto exp = Experiment::PointToPoint(spec, spec, FastLink());
    EchoServerConfig sc;
    EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
    server.Start();
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = 1;
    cc.pipeline_depth = depth;
    EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
    client.Start();
    exp->sim().RunUntil(Ms(20));
    client.BeginMeasurement();
    exp->sim().RunUntil(Ms(60));
    return client.Throughput();
  };
  EXPECT_GT(run(16), run(1) * 2);
}

class KvOnStackTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(KvOnStackTest, GetSetMixServed) {
  HostSpec spec;
  spec.stack = GetParam();
  spec.app_cores = 2;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  KvServerConfig sc;
  sc.num_keys = 1000;
  KvServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  KvClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 16;
  cc.num_keys = 1000;
  KvClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(100));
  EXPECT_GT(client.completed(), 500u);
  // 90/10 GET/SET mix within tolerance.
  const double get_fraction = static_cast<double>(server.gets()) /
                              static_cast<double>(server.gets() + server.sets());
  EXPECT_NEAR(get_fraction, 0.9, 0.05);
}

INSTANTIATE_TEST_SUITE_P(SomeStacks, KvOnStackTest,
                         ::testing::Values(StackKind::kTas, StackKind::kLinux));

TEST(KvTest, OpenLoopRateIsRespected) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  KvServerConfig sc;
  KvServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  KvClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 32;
  cc.target_ops_per_sec = 50000;
  KvClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(50));
  client.BeginMeasurement();
  exp->sim().RunUntil(Ms(250));
  EXPECT_NEAR(client.Throughput(), 50000, 5000);
}

TEST(KvTest, ContendedModeSerializesOnLock) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 4;
  spec.stack_cores = 4;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  Core lock_core(&exp->sim(), 999, kCoreGhz);
  KvServerConfig sc;
  sc.contended = true;
  sc.lock_core = &lock_core;
  sc.lock_hold_cycles = 2100;  // 1us per op -> 1 mOps hard cap.
  sc.app_cycles_per_op = 100;
  KvServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  KvClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 64;
  KvClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(30));
  client.BeginMeasurement();
  exp->sim().RunUntil(Ms(80));
  EXPECT_LT(client.Throughput(), 1.1e6);  // Lock-bound.
  EXPECT_GT(lock_core.total_cycles(), 0u);
}

TEST(BulkTest, TransfersAtNearLineRate) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 4;
  spec.stack_cores = 4;
  LinkConfig link = FastLink();
  link.ecn_threshold_pkts = 65;
  auto exp = Experiment::PointToPoint(spec, spec, link);
  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 16;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  // Rate-based DCTCP converges via +10 Mbps additive steps (paper default):
  // 16 flows x 10G need ~60ms to reach equilibrium.
  exp->sim().RunUntil(Ms(100));
  rx.BeginMeasurement();
  exp->sim().RunUntil(Ms(160));
  EXPECT_GT(rx.ThroughputBps(), 7e9);  // > 70% of the 10G link.
  EXPECT_EQ(tx.connected(), 16u);
}

TEST(BulkTest, WindowSamplingCollectsPerConnection) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  BulkReceiverConfig rc;
  rc.sample_interval = Ms(10);
  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), rc);
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 4;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(20));
  rx.BeginMeasurement();
  exp->sim().RunUntil(Ms(80));
  // ~6 windows x 4 connections of samples.
  EXPECT_GE(rx.window_samples().size(), 16u);
}

TEST(FlexStormTest, TuplesFlowThreeHops) {
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  for (int i = 0; i < 3; ++i) {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.app_cores = 4;
    specs.push_back(spec);
    links.push_back(FastLink());
  }
  auto exp = Experiment::Star(specs, links);
  FlexStormConfig config;
  config.spout_rate_tps = 50000;
  config.mux_batch_timeout = 0;
  std::vector<std::unique_ptr<FlexStormNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    config.rng_seed = 50 + i;
    nodes.push_back(std::make_unique<FlexStormNode>(
        &exp->sim(), exp->host(i).stack(), exp->host(i).AppCorePtrs(), config));
  }
  for (int i = 0; i < 3; ++i) {
    nodes[i]->Start(exp->host((i + 1) % 3).ip());
  }
  exp->sim().RunUntil(Ms(40));
  for (auto& node : nodes) {
    node->BeginMeasurement();
  }
  exp->sim().RunUntil(Ms(140));
  uint64_t total = 0;
  for (auto& node : nodes) {
    total += node->completed();
  }
  // 3 spouts at 50k for ~140ms; most tuples must complete all 3 hops.
  EXPECT_GT(total, 10000u);
  EXPECT_GT(nodes[0]->tuple_latency_us().count(), 1000u);
  EXPECT_GT(nodes[0]->processing_us().mean(), 0.1);
}

TEST(FlexStormTest, BatchingRaisesOutputWait) {
  auto run = [](TimeNs batch_timeout) {
    std::vector<HostSpec> specs;
    std::vector<LinkConfig> links;
    for (int i = 0; i < 3; ++i) {
      HostSpec spec;
      spec.stack = StackKind::kTas;
      spec.app_cores = 4;
      specs.push_back(spec);
      links.push_back(FastLink());
    }
    auto exp = Experiment::Star(specs, links);
    FlexStormConfig config;
    config.spout_rate_tps = 30000;
    config.mux_batch_timeout = batch_timeout;
    std::vector<std::unique_ptr<FlexStormNode>> nodes;
    for (int i = 0; i < 3; ++i) {
      config.rng_seed = 60 + i;
      nodes.push_back(std::make_unique<FlexStormNode>(
          &exp->sim(), exp->host(i).stack(), exp->host(i).AppCorePtrs(), config));
    }
    for (int i = 0; i < 3; ++i) {
      nodes[i]->Start(exp->host((i + 1) % 3).ip());
    }
    exp->sim().RunUntil(Ms(30));
    for (auto& node : nodes) {
      node->BeginMeasurement();
    }
    exp->sim().RunUntil(Ms(120));
    return nodes[0]->output_wait_us().mean();
  };
  const double batched = run(Ms(5));
  const double unbatched = run(0);
  EXPECT_GT(batched, unbatched * 10);  // Batching dominates output wait.
}

// Closing the KV store's connections from both ends: the client closes
// half, the server the other half. A connection only finishes on both sides
// if the app at the far end answers the peer's FIN with its own close, so
// every OnClosed below depends on the other app's OnRemoteClosed.
TEST(CloseHandlerTest, KvServerAndClientCloseTheirConnections) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  KvServer server(&exp->sim(), exp->host(0).stack(), KvServerConfig{});
  server.Start();
  KvClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 8;
  KvClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  CloseSpy server_spy(exp->host(0).stack(), &server);
  CloseSpy client_spy(exp->host(1).stack(), &client);
  exp->sim().RunUntil(Ms(20));
  ASSERT_EQ(client_spy.connected.size(), 8u);
  ASSERT_EQ(server_spy.accepted.size(), 8u);
  ASSERT_GT(client.completed(), 0u);
  for (size_t i = 0; i < 4; ++i) {
    exp->host(1).stack()->Close(client_spy.connected[i]);
    exp->host(0).stack()->Close(server_spy.accepted[4 + i]);
  }
  exp->sim().RunUntil(Ms(100));
  EXPECT_EQ(server_spy.remote_closed, 8u);
  EXPECT_EQ(client_spy.remote_closed, 8u);
  EXPECT_EQ(server_spy.closed, 8u);
  EXPECT_EQ(client_spy.closed, 8u);
}

// Each node of a three-node ring closes its outbound connection; the
// downstream node's OnRemoteClosed must close it back. The spouts keep
// emitting: a closed connection reports no send space, so its tuples wait
// in the node's queue instead of being written.
TEST(CloseHandlerTest, FlexStormNodesCloseTheRing) {
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  for (int i = 0; i < 3; ++i) {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.app_cores = 4;
    specs.push_back(spec);
    links.push_back(FastLink());
  }
  auto exp = Experiment::Star(specs, links);
  FlexStormConfig config;
  config.mux_batch_timeout = 0;
  config.spout_rate_tps = 50000;
  std::vector<std::unique_ptr<FlexStormNode>> nodes;
  std::vector<std::unique_ptr<CloseSpy>> spies;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<FlexStormNode>(
        &exp->sim(), exp->host(i).stack(), exp->host(i).AppCorePtrs(), config));
    nodes[i]->Start(exp->host((i + 1) % 3).ip());
    spies.push_back(std::make_unique<CloseSpy>(exp->host(i).stack(), nodes[i].get()));
  }
  exp->sim().RunUntil(Ms(10));
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(spies[i]->connected.size(), 1u);
    ASSERT_GT(nodes[i]->completed(), 0u) << "node " << i;  // Tuples were flowing.
    exp->host(i).stack()->Close(spies[i]->connected[0]);
  }
  exp->sim().RunUntil(Ms(60));
  for (int i = 0; i < 3; ++i) {
    // The outbound and the inbound connection, each closed by both ends.
    EXPECT_EQ(spies[i]->remote_closed, 2u) << "node " << i;
    EXPECT_EQ(spies[i]->closed, 2u) << "node " << i;
  }
}

// The sender closes every flow mid-transfer; the flow finishes on the
// sender only once BulkReceiver's OnRemoteClosed closes the receiving end.
TEST(CloseHandlerTest, BulkReceiverClosesWhenSenderDoes) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, FastLink());
  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 4;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  CloseSpy rx_spy(exp->host(0).stack(), &rx);
  CloseSpy tx_spy(exp->host(1).stack(), &tx);
  exp->sim().RunUntil(Ms(10));
  ASSERT_EQ(tx_spy.connected.size(), 4u);
  ASSERT_GT(rx.bytes_received(), 0u);
  for (const ConnId conn : tx_spy.connected) {
    exp->host(1).stack()->Close(conn);
  }
  exp->sim().RunUntil(Ms(100));
  EXPECT_EQ(rx_spy.remote_closed, 4u);
  EXPECT_EQ(rx_spy.closed, 4u);
  EXPECT_EQ(tx_spy.closed, 4u);
}

}  // namespace
}  // namespace tas
