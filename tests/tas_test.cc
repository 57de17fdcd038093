// Integration tests for TAS itself: slow-path connection control, fast-path
// data transfer, out-of-order handling, loss recovery, interoperability with
// the Linux baseline stack (paper Table 4), and workload proportionality.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

LinkConfig TestLink(double loss_rate = 0.0) {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  if (loss_rate > 0) {
    link.faults.Add(BernoulliLoss(loss_rate));
  }
  return link;
}

class RecordingServer : public AppHandler {
 public:
  RecordingServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}
  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }
  void OnAccepted(ConnId conn, uint16_t) override { accepted_.push_back(conn); }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    const size_t n = stack_->Recv(conn, buf.data(), bytes);
    per_conn_[conn].insert(per_conn_[conn].end(), buf.begin(),
                           buf.begin() + static_cast<long>(n));
    received_ += n;
  }
  void OnRemoteClosed(ConnId conn) override {
    remote_closed_++;
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override { fully_closed_++; }

  Stack* stack_;
  uint16_t port_;
  std::vector<ConnId> accepted_;
  std::map<ConnId, std::vector<uint8_t>> per_conn_;
  size_t received_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
};

class PatternClient : public AppHandler {
 public:
  PatternClient(Stack* stack, IpAddr server, uint16_t port, size_t total,
                size_t num_conns = 1)
      : stack_(stack), server_(server), port_(port), total_(total), num_conns_(num_conns) {}
  void Start() {
    stack_->SetHandler(this);
    for (size_t i = 0; i < num_conns_; ++i) {
      ConnId id = stack_->Connect(server_, port_);
      progress_[id] = Progress{};
    }
  }
  void OnConnected(ConnId conn, bool success) override {
    if (!success) {
      ++failures_;
      return;
    }
    ++connected_;
    Pump(conn);
  }
  void OnSendSpace(ConnId conn, size_t bytes) override {
    auto it = progress_.find(conn);
    if (it == progress_.end()) {
      return;
    }
    it->second.acked += bytes;
    Pump(conn);
    if (it->second.sent >= total_ && it->second.acked >= total_ && !it->second.closed) {
      it->second.closed = true;
      stack_->Close(conn);
    }
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  void Pump(ConnId conn) {
    Progress& p = progress_[conn];
    while (p.sent < total_) {
      uint8_t chunk[997];
      const size_t want = std::min(sizeof(chunk), total_ - p.sent);
      for (size_t i = 0; i < want; ++i) {
        chunk[i] = static_cast<uint8_t>((p.sent + i) % 251);
      }
      const size_t n = stack_->Send(conn, chunk, want);
      p.sent += n;
      if (n < want) {
        break;
      }
    }
  }

  struct Progress {
    size_t sent = 0;
    size_t acked = 0;
    bool closed = false;
  };
  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  size_t total_;
  size_t num_conns_;
  std::map<ConnId, Progress> progress_;
  int connected_ = 0;
  int failures_ = 0;
  int fully_closed_ = 0;
};

void ExpectPattern(const std::vector<uint8_t>& data, size_t total) {
  ASSERT_EQ(data.size(), total);
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(data[i], static_cast<uint8_t>(i % 251)) << "at offset " << i;
  }
}

struct StackPair {
  StackKind server;
  StackKind client;
};

class TransferMatrixTest : public ::testing::TestWithParam<StackPair> {};

// The Table 4 compatibility property: every combination of TAS and Linux
// endpoints (and TAS LL) moves an intact byte stream and tears down cleanly.
TEST_P(TransferMatrixTest, IntactTransfer) {
  HostSpec server_spec;
  server_spec.stack = GetParam().server;
  HostSpec client_spec;
  client_spec.stack = GetParam().client;
  auto exp = Experiment::PointToPoint(server_spec, client_spec, TestLink());

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 150000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  EXPECT_EQ(client.connected_, 1);
  ASSERT_EQ(server.accepted_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  EXPECT_EQ(server.remote_closed_, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TransferMatrixTest,
    ::testing::Values(StackPair{StackKind::kTas, StackKind::kTas},
                      StackPair{StackKind::kTas, StackKind::kLinux},
                      StackPair{StackKind::kLinux, StackKind::kTas},
                      StackPair{StackKind::kTasLowLevel, StackKind::kTasLowLevel},
                      StackPair{StackKind::kTas, StackKind::kIx},
                      StackPair{StackKind::kIx, StackKind::kTas}));

class TasLossTest : public ::testing::TestWithParam<int> {};

// TAS's simplified recovery (one OOO interval + dupack fast recovery +
// slow-path timeouts) must still deliver the stream intact under loss.
TEST_P(TasLossTest, RecoversUnderRandomLoss) {
  const double loss_rate = GetParam() / 100.0;
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink(loss_rate));

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 80000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TasLossTest, ::testing::Values(1, 2, 5));

TEST(TasLossTest, GoBackNModeAlsoRecovers) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.ooo_mode = OooMode::kGoBackN;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink(0.02));

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 50000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
}

TEST(TasTest, ManyConnectionsSpreadAcrossCoresAndTransfer) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.stack_cores = 4;
  spec.app_cores = 2;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kPerConn = 20000;
  constexpr size_t kConns = 24;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kPerConn, kConns);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(10));

  EXPECT_EQ(client.connected_, static_cast<int>(kConns));
  ASSERT_EQ(server.per_conn_.size(), kConns);
  for (const auto& [conn, data] : server.per_conn_) {
    ExpectPattern(data, kPerConn);
  }
  // Work should have landed on more than one fast-path core.
  TasService* tas = exp->host(0).tas();
  int cores_used = 0;
  for (int i = 0; i < tas->max_cores(); ++i) {
    if (tas->fastpath_cpu(i)->total_cycles() > 0) {
      ++cores_used;
    }
  }
  EXPECT_GT(cores_used, 1);
}

TEST(TasTest, ConnectToClosedPortFails) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());

  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 4444, 100);
  client.Start();
  exp->sim().RunUntil(Sec(10));
  EXPECT_EQ(client.connected_, 0);
  EXPECT_EQ(client.failures_, 1);
}

// Records what libTAS reports per connection id.
class ConnLog : public AppHandler {
 public:
  void OnConnected(ConnId conn, bool success) override {
    (success ? connected : failed).push_back(conn);
  }
  void OnRemoteClosed(ConnId conn) override { remote_closed.push_back(conn); }
  void OnClosed(ConnId conn) override { closed.push_back(conn); }

  std::vector<ConnId> connected;
  std::vector<ConnId> failed;
  std::vector<ConnId> remote_closed;
  std::vector<ConnId> closed;
};

TEST(TasStackTest, FlowIdReusedAfterCloseLeavesStaleIdAbsent) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  RecordingServer server(exp->host(0).stack(), 7000);
  server.Start();
  Stack* stack = exp->host(1).stack();
  ConnLog log;
  stack->SetHandler(&log);

  // A closed port: the connect fails, the service frees the flow and libTAS
  // drops the connection.
  const ConnId stale = stack->Connect(exp->host(0).ip(), 4444);
  exp->sim().RunUntil(Sec(10));
  ASSERT_EQ(log.failed, std::vector<ConnId>{stale});

  const ConnId fresh = stack->Connect(exp->host(0).ip(), 7000);
  exp->sim().RunUntil(Sec(10) + Ms(50));
  ASSERT_EQ(log.connected, std::vector<ConnId>{fresh});
  // Same slab slot, new generation.
  EXPECT_EQ(FlowSlotOf(static_cast<FlowId>(fresh)), FlowSlotOf(static_cast<FlowId>(stale)));
  EXPECT_NE(fresh, stale);

  const uint8_t data[16] = {};
  EXPECT_GT(stack->SendSpace(fresh), 0u);
  EXPECT_EQ(stack->SendSpace(stale), 0u);
  EXPECT_EQ(stack->RecvAvailable(stale), 0u);
  EXPECT_EQ(stack->Send(stale, data, sizeof(data)), 0u);
  EXPECT_EQ(stack->Send(fresh, data, sizeof(data)), sizeof(data));
  EXPECT_EQ(stack->SendSpace(kInvalidConn), 0u);
  exp->sim().RunUntil(Sec(10) + Ms(100));
  EXPECT_EQ(server.received_, sizeof(data));
}

TEST(TasStackTest, ConnDisplacedBySlotReuseStillGetsItsTerminalEvent) {
  // The service frees a flow's slot as it queues kConnClosed, so a new flow
  // can take the slot before the app drains that event. Both connections
  // must stay distinct: the old one still receives its close, the new one
  // keeps working.
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  RecordingServer server(exp->host(0).stack(), 7000);
  server.Start();
  TasService* service = exp->host(1).tas();
  Stack* stack = exp->host(1).stack();
  ConnLog log;
  stack->SetHandler(&log);

  const ConnId old_conn = stack->Connect(exp->host(0).ip(), 7000);
  exp->sim().RunUntil(Ms(50));
  ASSERT_EQ(log.connected, std::vector<ConnId>{old_conn});
  const uint16_t context = service->GetFlow(static_cast<FlowId>(old_conn))->fs.context;
  service->FreeFlow(static_cast<FlowId>(old_conn));  // Close event not yet delivered.

  const ConnId new_conn = stack->Connect(exp->host(0).ip(), 7000);
  EXPECT_EQ(FlowSlotOf(static_cast<FlowId>(new_conn)), FlowSlotOf(static_cast<FlowId>(old_conn)));
  service->context(context)->PushEvent(AppEvent{AppEventType::kConnClosed, old_conn, 0});
  exp->sim().RunUntil(Ms(100));

  EXPECT_EQ(log.remote_closed, std::vector<ConnId>{old_conn});
  EXPECT_EQ(log.closed, std::vector<ConnId>{old_conn});
  EXPECT_EQ(log.connected, (std::vector<ConnId>{old_conn, new_conn}));
  const uint8_t data[16] = {};
  EXPECT_EQ(stack->Send(new_conn, data, sizeof(data)), sizeof(data));
  EXPECT_EQ(stack->SendSpace(old_conn), 0u);
  exp->sim().RunUntil(Ms(150));
  EXPECT_EQ(server.received_, sizeof(data));
}

TEST(TasTest, FlowStateSizeMatchesPaper) {
  EXPECT_EQ(sizeof(FlowState), 103u);  // Paper: 102 B (4-bit dupack packed).
}

TEST(TasTest, StatsAccounted) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 100000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  const TasStats& server_stats = exp->host(0).tas()->stats();
  EXPECT_GT(server_stats.fastpath_rx_packets, 50u);
  EXPECT_GT(server_stats.fastpath_acks_sent, 50u);
  EXPECT_GT(server_stats.connections_established, 0u);
  EXPECT_EQ(server_stats.rx_buffer_drops, 0u);
  const TasStats& client_stats = exp->host(1).tas()->stats();
  EXPECT_GT(client_stats.fastpath_tx_packets, 50u);
}

TEST(TasTest, SlowPathHandlesExceptionsOnly) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 200000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  const TasStats& stats = exp->host(0).tas()->stats();
  // The slow path saw only the handshake/teardown, not the data packets.
  EXPECT_LT(stats.slowpath_packets, 10u);
  EXPECT_GT(stats.fastpath_rx_packets, 100u);
}

// The fast path's single-interval rule (paper §3.1, Exceptions), driven by
// crafted segments on an established flow: one out-of-order interval is
// tracked, segments that overlap or abut it extend it, a segment that would
// open a second interval is dropped, and filling the gap folds the interval
// into fs.ack.
TEST(TasOooTest, SingleIntervalRule) {
  HostSpec tas_spec;
  tas_spec.stack = StackKind::kTas;
  HostSpec peer_spec;
  peer_spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(tas_spec, peer_spec, TestLink());
  RecordingServer server(exp->host(0).stack(), 7000);
  server.Start();
  ConnLog log;
  exp->host(1).stack()->SetHandler(&log);
  const ConnId conn = exp->host(1).stack()->Connect(exp->host(0).ip(), 7000);
  exp->sim().RunUntil(Ms(1));
  ASSERT_EQ(log.connected.size(), 1u);

  const IpAddr peer_ip = exp->host(1).ip();
  const uint16_t peer_port = exp->host(1).engine()->connection(conn)->local_port();
  TasService* tas = exp->host(0).tas();
  Flow* flow = tas->LookupFlow(FlowKey{7000, peer_ip, peer_port});
  ASSERT_NE(flow, nullptr);
  // FlowState is packed: copy its fields out rather than bind references.
  const uint32_t base = flow->fs.ack;
  ASSERT_EQ(uint32_t{flow->fs.ooo_len}, 0u);

  // Stream bytes [from, to) carry the offset pattern ExpectPattern checks.
  const auto inject = [&](uint32_t from, uint32_t to) {
    std::vector<uint8_t> payload;
    for (uint32_t i = from; i < to; ++i) {
      payload.push_back(static_cast<uint8_t>(i % 251));
    }
    tas->nic()->Receive(MakeTcpPacket(exp->packet_pool(), peer_ip, peer_port, tas->local_ip(),
                                      7000, base + from, 0, 0, std::move(payload)));
    exp->sim().RunUntil(exp->sim().Now() + Us(50));
  };
  const uint64_t accepted = tas->stats().ooo_accepted;
  const uint64_t dropped = tas->stats().ooo_dropped;

  inject(200, 300);  // Opens the interval.
  EXPECT_EQ(uint32_t{flow->fs.ooo_start}, base + 200);
  EXPECT_EQ(uint32_t{flow->fs.ooo_len}, 100u);
  inject(250, 400);  // Overlaps and extends it.
  EXPECT_EQ(uint32_t{flow->fs.ooo_start}, base + 200);
  EXPECT_EQ(uint32_t{flow->fs.ooo_len}, 200u);
  inject(400, 500);  // Abuts its end.
  EXPECT_EQ(uint32_t{flow->fs.ooo_len}, 300u);
  EXPECT_EQ(tas->stats().ooo_accepted, accepted + 3);

  inject(600, 700);  // Would open a second, disjoint interval.
  EXPECT_EQ(tas->stats().ooo_dropped, dropped + 1);
  EXPECT_EQ(uint32_t{flow->fs.ooo_start}, base + 200);
  EXPECT_EQ(uint32_t{flow->fs.ooo_len}, 300u);
  EXPECT_EQ(uint32_t{flow->fs.ack}, base);
  EXPECT_TRUE(server.per_conn_.empty());

  inject(0, 200);  // Fills the gap: the interval merges into fs.ack.
  EXPECT_EQ(uint32_t{flow->fs.ack}, base + 500);
  EXPECT_EQ(uint32_t{flow->fs.ooo_len}, 0u);
  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, 500);
}

// The fast path's context-queue entries (paper §3.1), driven by crafted
// segments from a Linux peer: the TAS server holds 300 sent bytes that the
// peer has not acknowledged, and the link is down, so only the crafted
// segments reach it.
class DataEntryTest : public ::testing::Test, public AppHandler {
 protected:
  void SetUp() override {
    HostSpec tas_spec;
    tas_spec.stack = StackKind::kTas;
    HostSpec peer_spec;
    peer_spec.stack = StackKind::kLinux;
    exp_ = Experiment::PointToPoint(tas_spec, peer_spec, TestLink());
    stack_ = exp_->host(0).stack();
    stack_->SetHandler(this);
    stack_->Listen(7000);
    exp_->host(1).stack()->SetHandler(&peer_log_);
    const ConnId peer_conn = exp_->host(1).stack()->Connect(exp_->host(0).ip(), 7000);
    exp_->sim().RunUntil(Ms(1));
    ASSERT_EQ(peer_log_.connected.size(), 1u);
    ASSERT_NE(conn_, kInvalidConn);
    peer_ip_ = exp_->host(1).ip();
    peer_port_ = exp_->host(1).engine()->connection(peer_conn)->local_port();
    tas_ = exp_->host(0).tas();
    flow_ = tas_->LookupFlow(FlowKey{7000, peer_ip_, peer_port_});
    ASSERT_NE(flow_, nullptr);

    exp_->host_link(0)->SetDown(true);
    const std::vector<uint8_t> data(300, 7);
    ASSERT_EQ(stack_->Send(conn_, data.data(), data.size()), data.size());
    exp_->sim().RunUntil(exp_->sim().Now() + Us(50));
    ASSERT_EQ(flow_->TxQueued(), 300u);
  }

  // The peer's next segment: `payload` in-order bytes, and an ACK for
  // `acked` more of the server's bytes unless `with_ack` is false.
  void Inject(uint32_t payload, uint32_t acked, bool with_ack = true) {
    const uint32_t seq = flow_->fs.ack;
    const uint32_t ack = flow_->fs.tx_tail + acked;
    PacketPtr pkt = MakeTcpPacket(exp_->packet_pool(), peer_ip_, peer_port_, tas_->local_ip(),
                                  7000, seq, with_ack ? ack : 0,
                                  with_ack ? TcpFlags::kAck : uint8_t{0},
                                  std::vector<uint8_t>(payload, 1));
    pkt->tcp.window = 0xFFFF;
    tas_->nic()->Receive(std::move(pkt));
    exp_->sim().RunUntil(exp_->sim().Now() + Us(50));
  }

  // Holds the server context's entries in its queue: the app is not woken.
  Fifo<AppEvent>& HoldEntries() {
    AppContext* context = tas_->context(flow_->fs.context);
    context->set_app_notify(nullptr);
    return context->rx();
  }

  void OnAccepted(ConnId conn, uint16_t) override { conn_ = conn; }
  void OnData(ConnId conn, size_t bytes) override {
    calls_.push_back("data " + std::to_string(bytes));
    std::vector<uint8_t> buf(bytes);
    stack_->Recv(conn, buf.data(), bytes);
    if (close_in_on_data_) {
      stack_->Close(conn);
    }
  }
  void OnSendSpace(ConnId, size_t bytes) override {
    calls_.push_back("space " + std::to_string(bytes));
  }

  std::unique_ptr<Experiment> exp_;
  Stack* stack_ = nullptr;
  ConnLog peer_log_;
  ConnId conn_ = kInvalidConn;
  IpAddr peer_ip_ = 0;
  uint16_t peer_port_ = 0;
  TasService* tas_ = nullptr;
  Flow* flow_ = nullptr;
  bool close_in_on_data_ = false;
  std::vector<std::string> calls_;
};

TEST_F(DataEntryTest, OneEntryPerSegmentCarriesBothCounts) {
  Fifo<AppEvent>& entries = HoldEntries();
  ASSERT_TRUE(entries.empty());
  Inject(100, 40);                 // Payload and an ACK.
  Inject(60, 0);                   // Payload, the ACK restates the old one.
  Inject(50, 0, /*with_ack=*/false);  // Payload without the ACK flag.
  Inject(0, 70);                   // A pure ACK.
  ASSERT_EQ(entries.size(), 4u);
  const uint32_t expected[4][2] = {{100, 40}, {60, 0}, {50, 0}, {0, 70}};
  for (const auto& [bytes, acked] : expected) {
    const AppEvent e = entries.front();
    entries.pop_front();
    EXPECT_EQ(e.type, AppEventType::kData);
    EXPECT_EQ(e.opaque, conn_);
    EXPECT_EQ(e.bytes, bytes);
    EXPECT_EQ(e.acked, acked);
  }
}

TEST_F(DataEntryTest, AppSeesDataBeforeSendSpace) {
  Inject(100, 40);
  Inject(0, 70);
  EXPECT_EQ(calls_, (std::vector<std::string>{"data 100", "space 40", "space 70"}));
}

// An app that closes its sending side while handling the data learns of no
// send space, from this entry or a later one.
TEST_F(DataEntryTest, CloseInOnDataWithholdsSendSpace) {
  close_in_on_data_ = true;
  Inject(100, 40);
  Inject(0, 70);
  EXPECT_EQ(calls_, (std::vector<std::string>{"data 100"}));
}

}  // namespace
}  // namespace tas
