// Tests for the TAS slow-path connection FSM under adverse conditions:
// handshake packet loss and retransmission, teardown (both directions,
// FIN loss), handshake-failure reporting, and listener behavior.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

class ConnTracker : public AppHandler {
 public:
  explicit ConnTracker(Stack* stack) : stack_(stack) {}
  void OnConnected(ConnId conn, bool ok) override {
    (ok ? connected_ : failed_)++;
    last_ = conn;
  }
  void OnAccepted(ConnId conn, uint16_t) override {
    ++accepted_;
    last_ = conn;
  }
  void OnRemoteClosed(ConnId conn) override {
    ++remote_closed_;
    if (auto_close_) {
      stack_->Close(conn);
    }
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  Stack* stack_;
  int connected_ = 0;
  int failed_ = 0;
  int accepted_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
  bool auto_close_ = true;
  ConnId last_ = kInvalidConn;
};

std::unique_ptr<Experiment> TasPair(double loss_rate = 0.0) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  if (loss_rate > 0) {
    link.faults.Add(BernoulliLoss(loss_rate));
  }
  return Experiment::PointToPoint(spec, spec, link);
}

TEST(SlowPathFsmTest, HandshakeSurvivesHeavyLoss) {
  // 20% loss: SYN/SYN-ACK/ACK all get dropped sometimes; the slow path's
  // backoff retransmission must still establish every connection.
  auto exp = TasPair(0.20);
  ConnTracker server(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&server);
  exp->host(0).stack()->Listen(6000);
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  for (int i = 0; i < 16; ++i) {
    exp->host(1).stack()->Connect(exp->host(0).ip(), 6000);
  }
  exp->sim().RunUntil(Sec(20));
  EXPECT_EQ(client.connected_, 16);
  EXPECT_EQ(server.accepted_, 16);
  EXPECT_EQ(client.failed_, 0);
}

TEST(SlowPathFsmTest, GracefulCloseFromInitiator) {
  auto exp = TasPair();
  ConnTracker server(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&server);
  exp->host(0).stack()->Listen(6000);
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  const ConnId conn = exp->host(1).stack()->Connect(exp->host(0).ip(), 6000);
  exp->sim().RunUntil(Ms(10));
  ASSERT_EQ(client.connected_, 1);

  exp->host(1).stack()->Close(conn);
  exp->sim().RunUntil(Ms(100));
  // Server learned of the close; both flow tables drained.
  EXPECT_EQ(server.remote_closed_, 1);
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
  EXPECT_GT(exp->host(1).tas()->stats().connections_closed, 0u);
}

TEST(SlowPathFsmTest, CloseCompletesUnderLoss) {
  auto exp = TasPair(0.15);
  ConnTracker server(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&server);
  exp->host(0).stack()->Listen(6000);
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  const ConnId conn = exp->host(1).stack()->Connect(exp->host(0).ip(), 6000);
  exp->sim().RunUntil(Sec(5));
  ASSERT_EQ(client.connected_, 1);
  exp->host(1).stack()->Close(conn);
  exp->sim().RunUntil(Sec(30));  // FIN/ACK losses need retransmission rounds.
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
}

TEST(SlowPathFsmTest, ConnectToNonListenerFailsCleanly) {
  auto exp = TasPair();
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  exp->host(1).stack()->Connect(exp->host(0).ip(), 4444);
  exp->sim().RunUntil(Sec(30));  // Exhaust handshake retries.
  EXPECT_EQ(client.connected_, 0);
  EXPECT_EQ(client.failed_, 1);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);  // State reclaimed.
}

TEST(SlowPathFsmTest, ManyListenersDemuxByPort) {
  auto exp = TasPair();
  ConnTracker server(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&server);
  for (uint16_t port = 7000; port < 7008; ++port) {
    exp->host(0).stack()->Listen(port);
  }
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  for (uint16_t port = 7000; port < 7008; ++port) {
    exp->host(1).stack()->Connect(exp->host(0).ip(), port);
  }
  exp->sim().RunUntil(Ms(50));
  EXPECT_EQ(server.accepted_, 8);
  EXPECT_EQ(client.connected_, 8);
}

TEST(SlowPathFsmTest, DataPacketsNeverReachSlowPathSteadyState) {
  auto exp = TasPair();
  ConnTracker server(exp->host(0).stack());
  server.auto_close_ = false;
  exp->host(0).stack()->SetHandler(&server);
  exp->host(0).stack()->Listen(6000);
  ConnTracker client(exp->host(1).stack());
  exp->host(1).stack()->SetHandler(&client);
  const ConnId conn = exp->host(1).stack()->Connect(exp->host(0).ip(), 6000);
  exp->sim().RunUntil(Ms(10));
  const uint64_t exceptions_after_handshake =
      exp->host(0).tas()->stats().slowpath_packets;

  // Push a burst of data; nothing new should hit the slow path.
  uint8_t chunk[1024] = {};
  for (int i = 0; i < 50; ++i) {
    exp->host(1).stack()->Send(conn, chunk, sizeof(chunk));
  }
  exp->sim().RunUntil(Ms(50));
  EXPECT_EQ(exp->host(0).tas()->stats().slowpath_packets, exceptions_after_handshake);
  EXPECT_GT(exp->host(0).tas()->stats().fastpath_rx_packets, 30u);
}

TEST(SlowPathFsmTest, SimultaneousCloseResolves) {
  auto exp = TasPair();
  ConnTracker server(exp->host(0).stack());
  server.auto_close_ = false;
  exp->host(0).stack()->SetHandler(&server);
  exp->host(0).stack()->Listen(6000);
  ConnTracker client(exp->host(1).stack());
  client.auto_close_ = false;
  exp->host(1).stack()->SetHandler(&client);
  const ConnId conn = exp->host(1).stack()->Connect(exp->host(0).ip(), 6000);
  exp->sim().RunUntil(Ms(10));
  ASSERT_EQ(client.connected_, 1);
  ASSERT_EQ(server.accepted_, 1);
  // Both ends close at (nearly) the same instant.
  exp->host(1).stack()->Close(conn);
  exp->host(0).stack()->Close(server.last_);
  exp->sim().RunUntil(Sec(5));
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
}

}  // namespace
}  // namespace tas
