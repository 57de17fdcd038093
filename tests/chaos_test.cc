// Chaos suite: TAS invariants under every fault class the src/fault subsystem
// injects — link flaps during handshakes, total-loss windows, burst loss,
// corruption (caught by the checksum path), reordering, duplication, and
// NIC-level faults. The invariants: retransmission machinery fires (handshake
// retries, timeout/fast retransmits), flows complete or close cleanly, no
// flow is left stuck, stats stay consistent, and the whole circus is
// deterministic under a fixed seed + schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/fault/injector.h"
#include "src/harness/experiment.h"
#include "src/net/pcap.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

LinkConfig ChaosLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

// Minimal app pair (mirrors tas_test.cc): server records the byte stream,
// client streams a deterministic pattern over one or more connections and
// closes when fully acked.
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

// --- Handshake under link flaps ---------------------------------------------

TEST(ChaosTest, LinkFlapDuringHandshakeRetriesAndRecovers) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), ChaosLink());
  // The link is dead for the SYN and its first retry (handshake RTO 20 ms);
  // the second retry at ~60 ms goes through.
  FaultSchedule chaos;
  chaos.LinkFlap(0, Ms(50), exp->host_link(1));
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 5000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(10));

  EXPECT_EQ(client.connected_, 1);
  EXPECT_EQ(client.failures_, 0);
  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, 5000);
  // The slow path really did retry the SYN while the link was down.
  EXPECT_GE(exp->host(1).tas()->stats().handshake_retransmits, 1u);
  EXPECT_GT(exp->host_link(1)->stats(1).drops_down, 0u);
  // Both fault events applied and were logged in order.
  ASSERT_EQ(exp->faults().log().size(), 2u);
  EXPECT_EQ(exp->faults().log()[0].description, "link down");
  EXPECT_EQ(exp->faults().log()[1].description, "link up");
  EXPECT_EQ(exp->faults().pending(), 0u);
}

TEST(ChaosTest, LongFlapExhaustsHandshakeRetriesCleanly) {
  HostSpec spec = TasSpec();
  spec.tas_overridden = true;
  spec.tas.handshake_rto = Ms(5);
  spec.tas.max_handshake_retries = 3;
  auto exp = Experiment::PointToPoint(spec, spec, ChaosLink());
  // Down for the whole retry budget (5+10+20+40 ms of backoff).
  FaultSchedule chaos;
  chaos.LinkDownAt(0, exp->host_link(1));
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 1000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(10));

  EXPECT_EQ(client.connected_, 0);
  EXPECT_EQ(client.failures_, 1);
  EXPECT_GE(exp->host(1).tas()->stats().handshake_retransmits, 3u);
  // The half-open flow was reclaimed, not leaked.
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
}

// --- Total-loss window -------------------------------------------------------

TEST(ChaosTest, TotalLossWindowTriggersTimeoutRetransmitsThenRecovers) {
  // Slow link (100 Mbit/s) so the 120 KB transfer spans tens of ms and is
  // mid-flight when the window opens.
  LinkConfig slow = ChaosLink();
  slow.gbps = 0.1;
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), slow);
  Link* link = exp->host_link(0);
  // Handshake completes in the clear; then the wire goes black for 10 ms in
  // both directions mid-transfer, long enough that only the slow-path RTO
  // (not dupacks, which need deliveries) can restart the flow.
  FaultSchedule chaos;
  chaos.ImpairmentWindowBoth(Ms(2), Ms(12), link, BernoulliLoss(1.0));
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 120000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  EXPECT_GT(exp->host(1).tas()->stats().timeout_retransmits, 0u);
  EXPECT_GT(link->stats(0).drops_induced + link->stats(1).drops_induced, 0u);
  // Flows drained on both ends after the close handshake.
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->faults().pending(), 0u);
}

// --- Corruption vs the checksum path ----------------------------------------

TEST(ChaosTest, CorruptionRejectedByWireChecksumWhenValidating) {
  LinkConfig link = ChaosLink();
  link.validate_wire_format = true;  // Real bytes, real checksums.
  link.faults.Add(Corruption(0.05, 3));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 60000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  // The stream survives because every damaged frame was caught and dropped at
  // the serialization boundary, then retransmitted.
  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  const LinkStats& c2s = exp->host_link(1)->stats(1);
  const LinkStats& s2c = exp->host_link(1)->stats(0);
  EXPECT_GT(c2s.drops_corrupt + s2c.drops_corrupt, 0u);
  EXPECT_GE(c2s.corrupt_marked + s2c.corrupt_marked,
            c2s.drops_corrupt + s2c.drops_corrupt);
}

TEST(ChaosTest, CorruptionDroppedByNicChecksumWithoutByteValidation) {
  LinkConfig link = ChaosLink();
  link.faults.Add(Corruption(0.05));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 60000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  // The modeled NIC checksum offload discarded the marked frames.
  EXPECT_GT(exp->host(0).tas()->nic()->rx_checksum_drops() +
                exp->host(1).tas()->nic()->rx_checksum_drops(),
            0u);
}

// --- Burst loss, reordering, duplication -------------------------------------

TEST(ChaosTest, GilbertElliottBurstLossRecovers) {
  LinkConfig link = ChaosLink();
  // Mean burst: 4 packets at 90% loss; bursts start on ~2% of packets. The
  // transfer is long enough that the data direction's own burst process (each
  // direction draws from its own rng stream) reliably clips data packets.
  link.faults.Add(GilbertElliottLoss(0.02, 0.25, 0.9));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 300000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  const TasStats& tx_stats = exp->host(1).tas()->stats();
  EXPECT_GT(exp->host_link(0)->stats(0).drops_induced +
                exp->host_link(0)->stats(1).drops_induced,
            0u);
  // Burst loss must exercise recovery, via dupacks or the slow-path RTO.
  EXPECT_GT(tx_stats.fast_retransmits + tx_stats.timeout_retransmits, 0u);
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
}

TEST(ChaosTest, ReorderingAcceptedByOooTracking) {
  LinkConfig link = ChaosLink();
  link.faults.Add(Reordering(0.10, Us(20), Us(80)));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 100000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  EXPECT_GT(exp->host_link(0)->stats(1).reordered, 0u);
  // The single out-of-order interval absorbed at least some of the shuffles.
  EXPECT_GT(exp->host(0).tas()->stats().ooo_accepted, 0u);
}

TEST(ChaosTest, DuplicationDoesNotCorruptTheStream) {
  LinkConfig link = ChaosLink();
  link.faults.Add(Duplication(0.2));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 80000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  // Exactly the pattern, no doubled bytes.
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  EXPECT_EQ(server.received_, kTotal);
  EXPECT_GT(exp->host_link(0)->stats(0).duplicated +
                exp->host_link(0)->stats(1).duplicated,
            0u);
}

TEST(ChaosTest, SwitchUplinkLossWindowHitsCrossSwitchTraffic) {
  // Dumbbell: the impairment targets the switch-to-switch bottleneck, found
  // via the topology's fault-targeting accessor rather than an access link.
  LinkConfig host_link = ChaosLink();
  LinkConfig bottleneck = ChaosLink();
  auto exp = Experiment::Custom(
      [&](Simulator* sim) {
        return MakeDumbbell(sim, 1, 1, host_link, bottleneck);
      },
      {TasSpec()});
  Link* uplink = exp->net()->SwitchLink(exp->net()->switch_at(0), exp->net()->switch_at(1));
  ASSERT_NE(uplink, nullptr);
  // Not adjacent to itself.
  EXPECT_EQ(exp->net()->SwitchLink(exp->net()->switch_at(0), exp->net()->switch_at(0)),
            nullptr);

  FaultSchedule chaos;
  chaos.ImpairmentWindowBoth(0, Sec(10), uplink, BernoulliLoss(0.05));
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 60000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  // Loss landed on the uplink, not the access links.
  EXPECT_GT(uplink->stats(0).drops_induced + uplink->stats(1).drops_induced, 0u);
  EXPECT_EQ(exp->host_link(0)->stats(0).drops_induced +
                exp->host_link(0)->stats(1).drops_induced,
            0u);
}

// --- NIC-level faults --------------------------------------------------------

TEST(ChaosTest, NicRxFaultPipelineDropsAndStackRecovers) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), ChaosLink());
  SimNic* server_nic = exp->host(0).tas()->nic();
  server_nic->AddRxImpairment(BernoulliLoss(0.10));

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kTotal = 80000;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kTotal);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(30));

  ASSERT_EQ(server.per_conn_.size(), 1u);
  ExpectPattern(server.per_conn_.begin()->second, kTotal);
  EXPECT_GT(server_nic->rx_fault_drops(), 0u);
  // Conservation: every frame the NIC saw was ringed, fault-dropped, or
  // overflow-dropped.
  EXPECT_EQ(exp->host(0).tas()->stats().fastpath_rx_packets +
                exp->host(0).tas()->stats().slowpath_packets +
                server_nic->rx_fault_drops() + server_nic->rx_drops(),
            server_nic->rx_packets());
}

// --- The full storm ----------------------------------------------------------

TEST(ChaosTest, ChaosStormLeavesNoFlowStuck) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), ChaosLink());
  Link* link = exp->host_link(0);
  FaultSchedule chaos;
  chaos.LinkFlap(Ms(10), Ms(5), link)
      .ImpairmentWindowBoth(Ms(20), Ms(40), link, GilbertElliottLoss(0.02, 0.3, 0.9))
      .ImpairmentWindowBoth(Ms(45), Ms(60), link, Corruption(0.03))
      .ImpairmentWindowBoth(Ms(60), Ms(80), link, Reordering(0.05, Us(20), Us(100)))
      .LinkFlap(Ms(90), Ms(10), link);
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  constexpr size_t kPerConn = 30000;
  constexpr size_t kConns = 8;
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, kPerConn, kConns);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(60));

  // Every connection either completed or failed cleanly — and with handshake
  // retries riding out the flaps, they all complete here.
  EXPECT_EQ(client.connected_, static_cast<int>(kConns));
  EXPECT_EQ(client.failures_, 0);
  ASSERT_EQ(server.per_conn_.size(), kConns);
  for (const auto& [conn, data] : server.per_conn_) {
    ExpectPattern(data, kPerConn);
  }
  // No flow left stuck anywhere, and the schedule fully applied.
  EXPECT_EQ(exp->host(0).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->host(1).tas()->num_flows(), 0u);
  EXPECT_EQ(exp->faults().pending(), 0u);
  // 2 flaps x 2 events + 3 windows x 4 events (install/remove per direction).
  ASSERT_EQ(exp->faults().log().size(), 16u);
  for (size_t i = 1; i < exp->faults().log().size(); ++i) {
    EXPECT_GE(exp->faults().log()[i].at, exp->faults().log()[i - 1].at);
  }
}

// --- Determinism -------------------------------------------------------------

struct ReplayResult {
  size_t received = 0;
  std::string stats_fingerprint;
  std::string pcap_bytes;
};

std::string FingerprintLink(const Link& link) {
  std::ostringstream out;
  for (int side = 0; side < 2; ++side) {
    const LinkStats& s = link.stats(side);
    out << s.tx_packets << ':' << s.tx_bytes << ':' << s.drops_overflow << ':'
        << s.drops_induced << ':' << s.drops_down << ':' << s.drops_corrupt << ':'
        << s.corrupt_marked << ':' << s.duplicated << ':' << s.reordered << ':'
        << s.ecn_marks << ':' << s.queue_pkts.count() << ':' << s.queue_pkts.sum()
        << '/';
  }
  return out.str();
}

ReplayResult RunSeededChaosScenario(const std::string& pcap_path) {
  LinkConfig link = ChaosLink();
  link.rng_seed = 42;  // Fixed: byte-identical across separate constructions.
  link.faults.Add(GilbertElliottLoss(0.01, 0.3, 0.85));
  link.faults.Add(Duplication(0.02));
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), link);

  PcapWriter pcap(pcap_path);
  exp->host_link(0)->AttachPcap(1, &pcap);

  FaultSchedule chaos;
  chaos.LinkFlap(Ms(8), Ms(4), exp->host_link(0))
      .ImpairmentWindowBoth(Ms(15), Ms(25), exp->host_link(0),
                            Reordering(0.05, Us(20), Us(60)));
  exp->faults().Install(chaos);

  RecordingServer server(exp->host(0).stack(), 7000);
  PatternClient client(exp->host(1).stack(), exp->host(0).ip(), 7000, 60000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(20));

  ReplayResult result;
  result.received = server.received_;
  result.stats_fingerprint = FingerprintLink(*exp->host_link(0));
  std::ifstream in(pcap_path, std::ios::binary);
  result.pcap_bytes.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
  return result;
}

TEST(ChaosTest, SeededChaosScenarioIsByteIdenticalAcrossRuns) {
  const ReplayResult a = RunSeededChaosScenario("/tmp/tas_chaos_replay_a.pcap");
  const ReplayResult b = RunSeededChaosScenario("/tmp/tas_chaos_replay_b.pcap");
  EXPECT_EQ(a.received, 60000u);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.stats_fingerprint, b.stats_fingerprint);
  ASSERT_FALSE(a.pcap_bytes.empty());
  EXPECT_EQ(a.pcap_bytes, b.pcap_bytes);
  std::remove("/tmp/tas_chaos_replay_a.pcap");
  std::remove("/tmp/tas_chaos_replay_b.pcap");
}

// --- Injector mechanics ------------------------------------------------------

TEST(ChaosTest, ScheduleEventsApplyInOrderWithPastTimesClamped) {
  Simulator sim;
  FaultInjector injector(&sim);
  std::vector<int> order;
  FaultSchedule first;
  first.At(Ms(5), "later", [&order] { order.push_back(2); });
  first.At(Ms(1), "sooner", [&order] { order.push_back(1); });
  injector.Install(first);
  sim.RunUntil(Ms(2));
  ASSERT_EQ(order.size(), 1u);

  // Mid-run install with an already-passed timestamp: applies now, not never.
  FaultSchedule second;
  second.At(Ms(1), "stale", [&order] { order.push_back(3); });
  injector.Install(second);
  sim.RunUntil(Ms(10));

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 3);  // Clamped to install time (2 ms) — before the 5 ms event.
  EXPECT_EQ(order[2], 2);
  ASSERT_EQ(injector.log().size(), 3u);
  EXPECT_EQ(injector.log()[1].description, "stale");
  EXPECT_EQ(injector.log()[1].at, Ms(2));
  EXPECT_EQ(injector.pending(), 0u);
}

TEST(ChaosTest, EachFaultEventIsOneSimulatorEvent) {
  Simulator sim;
  Link link(&sim, LinkConfig{});
  FaultInjector injector(&sim);
  FaultSchedule schedule;
  schedule.LinkDownAt(Ms(1), &link);
  injector.Install(schedule);
  // Both directions go down inside the one event.
  EXPECT_EQ(sim.Run(), 1u);
  ASSERT_EQ(injector.log().size(), 1u);
  for (int side = 0; side < 2; ++side) {
    link.Send(side, MakeTcpPacket(sim.context().pool(), MakeIp(10, 0, 0, 1), 1,
                                  MakeIp(10, 0, 0, 2), 2, 0, 0, TcpFlags::kAck));
    EXPECT_EQ(link.stats(side).drops_down, 1u) << "side " << side;
  }
}

TEST(ChaosTest, LinkDownGateAttributesDropsAndReopens) {
  Simulator sim;
  LinkConfig config;
  Link link(&sim, config);
  struct Collector : NetDevice {
    void Receive(PacketPtr pkt) override { pkts.push_back(std::move(pkt)); }
    std::vector<PacketPtr> pkts;
  } dev;
  link.Attach(1, &dev);

  link.SetDown(true);
  EXPECT_TRUE(link.down());
  for (int i = 0; i < 5; ++i) {
    link.Send(0, MakeTcpPacket(sim.context().pool(), MakeIp(10, 0, 0, 1), 1,
                               MakeIp(10, 0, 0, 2), 2, 0, 0, TcpFlags::kAck));
  }
  sim.Run();
  EXPECT_TRUE(dev.pkts.empty());
  EXPECT_EQ(link.stats(0).drops_down, 5u);
  EXPECT_EQ(link.stats(0).drops_induced, 0u);

  link.SetDown(false);
  EXPECT_FALSE(link.down());
  link.Send(0, MakeTcpPacket(sim.context().pool(), MakeIp(10, 0, 0, 1), 1,
                             MakeIp(10, 0, 0, 2), 2, 0, 0, TcpFlags::kAck));
  sim.Run();
  EXPECT_EQ(dev.pkts.size(), 1u);
}

}  // namespace
}  // namespace tas
