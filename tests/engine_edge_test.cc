// Edge-case tests for the TCP engine and the stacks built on it: wire-format
// honesty (every packet round-trips through the byte encoder), zero-window
// stalls and updates, FIN-with-payload, RST teardown, window-mode TAS,
// delayed-ack behavior, dupack/window-update distinction, PCAP output, and
// TcpConnection-level handshake retransmission and RTO floor checks.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/net/pcap.h"
#include "src/harness/experiment.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

LinkConfig TestLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  return link;
}

// Minimal byte-counting apps used across these tests.
class Sink : public AppHandler {
 public:
  explicit Sink(Stack* stack) : stack_(stack) {}
  void OnAccepted(ConnId conn, uint16_t) override { last_conn_ = conn; }
  void OnData(ConnId conn, size_t /*bytes*/) override {
    last_conn_ = conn;
    if (paused_) {
      return;  // Simulate a stalled application (window fills).
    }
    Drain(conn);
  }
  void Drain(ConnId conn) {
    uint8_t buf[4096];
    size_t n;
    while ((n = stack_->Recv(conn, buf, sizeof(buf))) > 0) {
      received_ += n;
    }
  }
  void OnRemoteClosed(ConnId conn) override { stack_->Close(conn); }
  void Pause() { paused_ = true; }
  void Resume(ConnId conn) {
    paused_ = false;
    Drain(conn);
  }
  Stack* stack_;
  ConnId last_conn_ = kInvalidConn;
  size_t received_ = 0;
  bool paused_ = false;
};

class Streamer : public AppHandler {
 public:
  Streamer(Stack* stack, IpAddr dst, uint16_t port, size_t total)
      : stack_(stack), dst_(dst), port_(port), total_(total) {}
  void Start() {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(dst_, port_);
  }
  void OnConnected(ConnId conn, bool ok) override {
    connected_ = ok;
    if (ok) {
      Pump(conn);
    }
  }
  void OnSendSpace(ConnId conn, size_t bytes) override {
    acked_ += bytes;
    Pump(conn);
  }
  void Pump(ConnId conn) {
    uint8_t chunk[2048] = {};
    while (sent_ < total_) {
      const size_t want = std::min(sizeof(chunk), total_ - sent_);
      const size_t n = stack_->Send(conn, chunk, want);
      sent_ += n;
      if (n < want) {
        break;
      }
    }
  }
  Stack* stack_;
  IpAddr dst_;
  uint16_t port_;
  size_t total_;
  ConnId conn_ = kInvalidConn;
  size_t sent_ = 0;
  size_t acked_ = 0;
  bool connected_ = false;
};

class WireFormatTest : public ::testing::TestWithParam<StackKind> {};

// Every packet either stack emits must survive the byte-level wire encoding
// (valid checksums, parseable options) — links in validate mode assert it.
TEST_P(WireFormatTest, AllPacketsSurviveByteRoundTrip) {
  HostSpec spec;
  spec.stack = GetParam();
  LinkConfig link = TestLink();
  link.validate_wire_format = true;
  auto exp = Experiment::PointToPoint(spec, spec, link);

  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 50000);
  streamer.Start();
  exp->sim().RunUntil(Ms(200));
  EXPECT_EQ(sink.received_, 50000u);
}

INSTANTIATE_TEST_SUITE_P(Stacks, WireFormatTest,
                         ::testing::Values(StackKind::kTas, StackKind::kLinux,
                                           StackKind::kIx, StackKind::kMtcp));

// Active opens walk the ephemeral range 20000..65000, wrap, and skip a port
// a live connection is still bound to.
TEST(EphemeralPortTest, EngineStackWrapsAndSkipsBusyPorts) {
  HostSpec spec;
  spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  exp->host(0).stack()->Listen(5000);
  EngineStack* client = exp->host(1).engine();
  const ConnId first = client->Connect(exp->host(0).ip(), 5000);
  EXPECT_EQ(client->connection(first)->local_port(), 20000);
  exp->sim().RunUntil(Ms(1));
  EXPECT_EQ(client->ports().count(20000), 1u);

  uint16_t port = 0;
  while (port != PortTable::kEphemeralLast) {
    port = client->ports().AllocateEphemeral();
  }
  const ConnId wrapped = client->Connect(exp->host(0).ip(), 5000);
  EXPECT_EQ(client->connection(wrapped)->local_port(), 20001);
  exp->sim().RunUntil(Ms(2));
  // The server counts its accepted connections against the listening port.
  EXPECT_EQ(exp->host(0).engine()->ports().count(5000), 2u);
}

TEST(ZeroWindowTest, PausedReceiverStallsThenResumes) {
  HostSpec spec;
  spec.stack = StackKind::kLinux;
  spec.engine_overridden = true;
  spec.engine = LinuxStackConfig();
  spec.engine.tcp.rx_buffer_bytes = 8 * 1024;  // Small: fills quickly.
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());

  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  sink.Pause();
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 200000);
  streamer.Start();

  exp->sim().RunUntil(Ms(100));
  // Receiver paused: the sender must have stalled around the 8KB window.
  EXPECT_LT(streamer.acked_, 20000u);
  const size_t stalled_at = streamer.acked_;

  ASSERT_NE(sink.last_conn_, kInvalidConn);
  sink.Resume(sink.last_conn_);
  exp->sim().RunUntil(Ms(500));
  EXPECT_EQ(sink.received_, 200000u) << "window update failed to unstick sender";
  EXPECT_GT(streamer.acked_, stalled_at);
}

TEST(ZeroWindowTest, TasReceiverWindowUpdateUnsticksPeer) {
  HostSpec tas_spec;
  tas_spec.stack = StackKind::kTas;
  tas_spec.tas_overridden = true;
  tas_spec.tas.max_fastpath_cores = 2;
  tas_spec.tas.rx_buffer_bytes = 8 * 1024;
  tas_spec.tas.tx_buffer_bytes = 8 * 1024;
  HostSpec linux_spec;
  linux_spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(tas_spec, linux_spec, TestLink());

  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  sink.Pause();
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 100000);
  streamer.Start();
  exp->sim().RunUntil(Ms(100));
  EXPECT_LT(streamer.acked_, 20000u);
  ASSERT_NE(sink.last_conn_, kInvalidConn);
  sink.Resume(sink.last_conn_);
  exp->sim().RunUntil(Ms(600));
  EXPECT_EQ(sink.received_, 100000u);
}

TEST(TasWindowModeTest, WindowEnforcementTransfersIntact) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  spec.tas.cc_algorithm = CcAlgorithm::kDctcpWindow;  // Window mode (§3.2).
  LinkConfig link = TestLink();
  link.ecn_threshold_pkts = 65;
  auto exp = Experiment::PointToPoint(spec, spec, link);

  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 300000);
  streamer.Start();
  exp->sim().RunUntil(Ms(300));
  EXPECT_EQ(sink.received_, 300000u);
  // The window actually bounded flight size at some point.
  TasService* tas = exp->host(1).tas();
  bool saw_window = false;
  for (FlowId id = 0; id < 4; ++id) {
    Flow* flow = tas->GetFlow(id);
    if (flow != nullptr && flow->cc_window > 0) {
      saw_window = true;
    }
  }
  EXPECT_TRUE(saw_window);
}

TEST(TasWindowModeTest, WindowModeRecoversFromLoss) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  spec.tas.cc_algorithm = CcAlgorithm::kDctcpWindow;
  LinkConfig link = TestLink();
  link.faults.Add(BernoulliLoss(0.02));
  auto exp = Experiment::PointToPoint(spec, spec, link);
  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 60000);
  streamer.Start();
  exp->sim().RunUntil(Sec(10));
  EXPECT_EQ(sink.received_, 60000u);
}

TEST(PcapTest, WritesParseableCapture) {
  const std::string path = "/tmp/tas_test_capture.pcap";
  {
    PcapWriter pcap(path);
    ASSERT_TRUE(pcap.ok());
    PacketPool pool;
    auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 1000, MakeIp(10, 0, 0, 2), 2000, 7, 9,
                             TcpFlags::kAck | TcpFlags::kPsh, {1, 2, 3});
    pcap.Record(Us(123), *pkt);
    pcap.Record(Us(456), *pkt);
    EXPECT_EQ(pcap.packets_written(), 2u);
  }
  // Global header magic + both records present.
  std::ifstream in(path, std::ios::binary);
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), 4);
  EXPECT_EQ(magic, 0xA1B2C3D4u);
  in.seekg(0, std::ios::end);
  // 24B global header + 2 * (16B record header + 57B frame).
  EXPECT_EQ(static_cast<size_t>(in.tellg()), 24 + 2 * (16 + 57));
  std::remove(path.c_str());
}

TEST(DelayedAckTest, PureAcksAreCoalesced) {
  // One-directional stream: the receiver should emit far fewer pure ACKs
  // than data packets (2-MSS rule / delayed-ack timer).
  HostSpec spec;
  spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 500000);
  streamer.Start();
  exp->sim().RunUntil(Ms(200));
  ASSERT_EQ(sink.received_, 500000u);
  // Data packets from host1 to host0 vs ACKs host0 to host1.
  const Link* wire = exp->net()->links()[0].get();
  const uint64_t data_pkts = wire->stats(1).tx_packets;
  const uint64_t ack_pkts = wire->stats(0).tx_packets;
  EXPECT_LT(ack_pkts * 3, data_pkts * 2) << "delayed acks not coalescing";
}

TEST(TasAckTest, TasAcksEveryDataPacket) {
  // Paper §3.1: the fast path acknowledges every received data packet.
  HostSpec tas_spec;
  tas_spec.stack = StackKind::kTas;
  HostSpec peer;
  peer.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(tas_spec, peer, TestLink());
  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 200000);
  streamer.Start();
  exp->sim().RunUntil(Ms(200));
  ASSERT_EQ(sink.received_, 200000u);
  const TasStats& stats = exp->host(0).tas()->stats();
  EXPECT_GE(stats.fastpath_acks_sent + 5, stats.fastpath_rx_packets);
}

TEST(RstTest, AbortTearsDownBothEnds) {
  HostSpec spec;
  spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(spec, spec, TestLink());
  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 1 << 20);
  streamer.Start();
  exp->sim().RunUntil(Ms(5));
  ASSERT_TRUE(streamer.connected_);
  // Abort from the sender side mid-transfer.
  exp->host(1).engine()->connection(streamer.conn_)->Abort();
  exp->sim().RunUntil(Ms(50));
  EXPECT_EQ(exp->host(1).engine()->num_connections(), 0u);
  EXPECT_EQ(exp->host(0).engine()->num_connections(), 0u);
}

TEST(MtuTest, OversizedWritesAreSegmented) {
  // A single 100KB Send must arrive as MSS-sized packets, never oversized.
  HostSpec spec;
  spec.stack = StackKind::kLinux;
  LinkConfig link = TestLink();
  auto exp = Experiment::PointToPoint(spec, spec, link);
  Sink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(5000);
  Streamer streamer(exp->host(1).stack(), exp->host(0).ip(), 5000, 100000);
  streamer.Start();
  exp->sim().RunUntil(Ms(100));
  ASSERT_EQ(sink.received_, 100000u);
  const Link* wire = exp->net()->links()[0].get();
  // 100000 / 1448 = 70 packets minimum; anything much larger means an
  // oversized frame slipped through.
  EXPECT_GE(wire->stats(1).tx_packets, 70u);
  const double avg_bytes = static_cast<double>(wire->stats(1).tx_bytes) /
                           static_cast<double>(wire->stats(1).tx_packets);
  EXPECT_LE(avg_bytes, 1448 + 66 + 12);  // MSS + headers + options.
}

// Drives TcpConnections without a stack: records every emitted segment with
// its send time and, unless the wire is cut, delivers it to `peer` after
// `one_way` (a SYN reaching a closed peer is accepted as a passive open).
class WireHost : public TcpEngineHost {
 public:
  struct Sent {
    TimeNs at;
    TcpHeader tcp;
  };

  explicit WireHost(Simulator* sim) : sim_(sim) {}

  void EmitPacket(TcpConnection*, PacketPtr pkt) override {
    sent.push_back({sim_->Now(), pkt->tcp});
    if (cut || peer == nullptr) {
      return;
    }
    sim_->After(one_way, [this, p = std::move(pkt)] {
      if (peer->state() == TcpConnection::State::kClosed && p->tcp.syn()) {
        peer->AcceptSyn(*p);
      } else {
        peer->HandlePacket(*p);
      }
    });
  }
  void OnConnected(TcpConnection*) override {}
  void OnConnectFailed(TcpConnection*) override {}
  void OnDataAvailable(TcpConnection* conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    conn->Recv(buf.data(), bytes);
  }
  void OnSendSpace(TcpConnection*, size_t) override {}
  void OnRemoteClose(TcpConnection*) override {}
  void OnClosed(TcpConnection*) override {}

  std::vector<Sent> sent;
  TcpConnection* peer = nullptr;
  TimeNs one_way = Us(5);
  bool cut = false;

 private:
  Simulator* sim_;
};

void ExpectSameHandshakeOptions(const TcpHeader& first, const TcpHeader& retx) {
  EXPECT_EQ(retx.flags, first.flags);
  EXPECT_EQ(retx.seq, first.seq);
  EXPECT_EQ(retx.ack, first.ack);
  EXPECT_TRUE(first.has_mss);
  EXPECT_EQ(retx.has_mss, first.has_mss);
  EXPECT_EQ(retx.mss, first.mss);
  EXPECT_TRUE(first.has_wscale);
  EXPECT_EQ(retx.has_wscale, first.has_wscale);
  EXPECT_EQ(retx.wscale, first.wscale);
  EXPECT_TRUE(first.has_timestamps);
  EXPECT_EQ(retx.has_timestamps, first.has_timestamps);
  EXPECT_EQ(retx.ts_ecr, first.ts_ecr);
  EXPECT_GT(retx.ts_val, first.ts_val);  // Stamped when retransmitted.
}

TEST(HandshakeRetransmitTest, SynAndSynAckKeepTheirOptions) {
  Simulator sim;
  const TcpConfig config;
  const IpAddr client_ip = MakeIp(10, 0, 0, 1);
  const IpAddr server_ip = MakeIp(10, 0, 0, 2);

  WireHost client_host(&sim);
  client_host.cut = true;
  TcpConnection client(&sim, &client_host, config, client_ip, 40000, server_ip, 80, 7);
  client.Connect();

  WireHost server_host(&sim);
  server_host.cut = true;
  TcpConnection server(&sim, &server_host, config, server_ip, 80, client_ip, 40000, 9000);
  auto syn = MakeTcpPacket(sim.context().pool(), client_ip, 40000, server_ip, 80, 7, 0,
                           TcpFlags::kSyn);
  syn->tcp.has_mss = true;
  syn->tcp.mss = 1448;
  syn->tcp.has_wscale = true;
  syn->tcp.wscale = 7;
  syn->tcp.has_timestamps = true;
  syn->tcp.ts_val = 1234;
  server.AcceptSyn(*syn);

  // No RTT sample yet: the first RTO is 200 ms, then it doubles.
  sim.RunUntil(Ms(700));
  ASSERT_GE(client_host.sent.size(), 3u);
  ASSERT_GE(server_host.sent.size(), 3u);
  EXPECT_EQ(client_host.sent[0].tcp.flags, TcpFlags::kSyn);
  EXPECT_EQ(server_host.sent[0].tcp.flags, TcpFlags::kSyn | TcpFlags::kAck);
  EXPECT_EQ(server_host.sent[0].tcp.ts_ecr, 1234u);
  for (size_t i = 1; i < 3; ++i) {
    ExpectSameHandshakeOptions(client_host.sent[0].tcp, client_host.sent[i].tcp);
    ExpectSameHandshakeOptions(server_host.sent[0].tcp, server_host.sent[i].tcp);
  }
}

TEST(RtoFloorTest, SubMillisecondRttNeverTimesOutBeforeOneMs) {
  Simulator sim;
  const TcpConfig config;
  const IpAddr client_ip = MakeIp(10, 0, 0, 1);
  const IpAddr server_ip = MakeIp(10, 0, 0, 2);
  WireHost client_host(&sim);
  WireHost server_host(&sim);
  TcpConnection client(&sim, &client_host, config, client_ip, 40000, server_ip, 80, 7);
  TcpConnection server(&sim, &server_host, config, server_ip, 80, client_ip, 40000, 9000);
  client_host.peer = &server;
  server_host.peer = &client;

  client.Connect();
  sim.RunUntil(Us(100));
  ASSERT_TRUE(client.established());

  // Round trips of ~10 us plus delayed ACKs: every RTT sample is well
  // under a millisecond, so srtt + 4 * rttvar is too.
  const std::vector<uint8_t> chunk(4000, 0x5A);
  for (int i = 0; i < 20; ++i) {
    client.Send(chunk.data(), chunk.size());
    sim.RunUntil(sim.Now() + Us(500));
  }
  ASSERT_EQ(client.bytes_acked(), 20 * chunk.size());
  ASSERT_TRUE(client.rtt().HasSample());
  EXPECT_LT(client.rtt().srtt() + 4 * client.rtt().rttvar(), Us(500));
  EXPECT_EQ(client.rtt().Rto(), Ms(1));

  // Black-hole the wire: the segment's first retransmission waits out the
  // 1 ms floor, not the sub-millisecond estimate.
  client_host.cut = true;
  const size_t before = client_host.sent.size();
  const TimeNs sent_at = sim.Now();
  client.Send(chunk.data(), 1000);
  ASSERT_EQ(client_host.sent.size(), before + 1);
  EXPECT_EQ(client_host.sent[before].at, sent_at);
  sim.RunUntil(sent_at + Ms(1) - 1);
  EXPECT_EQ(client_host.sent.size(), before + 1);
  EXPECT_EQ(client.timeout_retransmits(), 0u);
  sim.RunUntil(sent_at + Ms(1) + Us(1));
  ASSERT_EQ(client_host.sent.size(), before + 2);
  EXPECT_EQ(client.timeout_retransmits(), 1u);
  EXPECT_EQ(client_host.sent[before + 1].at, sent_at + Ms(1));
}

}  // namespace
}  // namespace tas
