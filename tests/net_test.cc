// Tests for the network substrate: links (timing, ordering, ECN, drops, loss
// injection), switches (forwarding, ECMP stability), the NIC (RSS steering,
// ring overflow, notifications), and topology routing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/topology.h"
#include "src/nic/nic.h"
#include "src/sim/context.h"

namespace tas {
namespace {

class CollectingDevice : public NetDevice {
 public:
  void Receive(PacketPtr pkt) override {
    arrival_times.push_back(last_time_fn ? last_time_fn() : 0);
    packets.push_back(std::move(pkt));
  }
  std::function<TimeNs()> last_time_fn;
  std::vector<PacketPtr> packets;
  std::vector<TimeNs> arrival_times;
};

PacketPtr DataPacket(Simulator& sim, size_t payload = 1000,
                     IpAddr dst = MakeIp(10, 0, 0, 2)) {
  auto pkt = MakeTcpPacket(sim.context().pool(), MakeIp(10, 0, 0, 1), 1000, dst, 2000, 0, 0,
                           TcpFlags::kAck, std::vector<uint8_t>(payload));
  pkt->ip.ecn = Ecn::kEct0;
  return pkt;
}

TEST(LinkTest, DeliveryTiming) {
  Simulator sim;
  LinkConfig config;
  config.gbps = 10.0;
  config.propagation_delay = Us(5);
  Link link(&sim, config);
  CollectingDevice dev;
  dev.last_time_fn = [&sim] { return sim.Now(); };
  link.Attach(1, &dev);

  auto pkt = DataPacket(sim, 1000);
  const TimeNs serialize = TransmitTimeNs(pkt->WireBytes(), 10.0);
  link.Send(0, std::move(pkt));
  sim.Run();
  ASSERT_EQ(dev.packets.size(), 1u);
  EXPECT_EQ(dev.arrival_times[0], serialize + Us(5));
}

TEST(LinkTest, FifoOrderPreserved) {
  Simulator sim;
  LinkConfig config;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  for (uint32_t i = 0; i < 50; ++i) {
    auto pkt = DataPacket(sim, 100);
    pkt->tcp.seq = i;
    link.Send(0, std::move(pkt));
  }
  sim.Run();
  ASSERT_EQ(dev.packets.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(dev.packets[i]->tcp.seq, i);
  }
}

TEST(LinkTest, BackToBackPipelining) {
  // Two packets sent together: second arrives one serialization later.
  Simulator sim;
  LinkConfig config;
  config.gbps = 1.0;  // Slow link makes serialization visible.
  config.propagation_delay = Us(1);
  Link link(&sim, config);
  CollectingDevice dev;
  dev.last_time_fn = [&sim] { return sim.Now(); };
  link.Attach(1, &dev);
  const TimeNs ser = TransmitTimeNs(DataPacket(sim, 1000)->WireBytes(), 1.0);
  link.Send(0, DataPacket(sim, 1000));
  link.Send(0, DataPacket(sim, 1000));
  sim.Run();
  ASSERT_EQ(dev.packets.size(), 2u);
  EXPECT_EQ(dev.arrival_times[1] - dev.arrival_times[0], ser);
}

TEST(LinkTest, OverflowDropsTail) {
  Simulator sim;
  LinkConfig config;
  config.queue_limit_pkts = 4;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  for (int i = 0; i < 20; ++i) {
    link.Send(0, DataPacket(sim, 1000));
  }
  sim.Run();
  // 1 in flight + 4 queued accepted at burst time; rest dropped.
  EXPECT_EQ(dev.packets.size(), 5u);
  EXPECT_EQ(link.stats(0).drops_overflow, 15u);
}

TEST(LinkTest, EcnMarkedAboveThreshold) {
  Simulator sim;
  LinkConfig config;
  config.ecn_threshold_pkts = 3;
  config.queue_limit_pkts = 100;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  for (int i = 0; i < 10; ++i) {
    link.Send(0, DataPacket(sim, 1000));
  }
  sim.Run();
  ASSERT_EQ(dev.packets.size(), 10u);
  int marked = 0;
  for (const auto& pkt : dev.packets) {
    if (pkt->ip.ecn == Ecn::kCe) {
      ++marked;
    }
  }
  // Packet 0 starts transmitting immediately; packet i>=1 sees i-1 queued.
  // Occupancies >= 3 are seen by packets 4..9: six marks.
  EXPECT_EQ(marked, 6);
  EXPECT_EQ(link.stats(0).ecn_marks, 6u);
}

TEST(LinkTest, NotEctNeverMarked) {
  Simulator sim;
  LinkConfig config;
  config.ecn_threshold_pkts = 1;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  for (int i = 0; i < 5; ++i) {
    auto pkt = DataPacket(sim, 1000);
    pkt->ip.ecn = Ecn::kNotEct;
    link.Send(0, std::move(pkt));
  }
  sim.Run();
  for (const auto& pkt : dev.packets) {
    EXPECT_EQ(pkt->ip.ecn, Ecn::kNotEct);
  }
}

TEST(LinkTest, InducedLossRate) {
  Simulator sim;
  LinkConfig config;
  config.faults.Add(BernoulliLoss(0.3));
  config.queue_limit_pkts = 100000;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    link.Send(0, DataPacket(sim, 10));
  }
  sim.Run();
  const double loss =
      static_cast<double>(link.stats(0).drops_induced) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.3, 0.02);
  // The per-impairment stats agree with the link-level aggregate.
  ASSERT_EQ(link.pipeline(0).size(), 1u);
  EXPECT_EQ(link.pipeline(0).at(0)->stats().dropped, link.stats(0).drops_induced);
  EXPECT_EQ(link.pipeline(0).at(0)->stats().processed, static_cast<uint64_t>(n));
}

TEST(LinkTest, LossImpairmentRemovedMidRunStopsDrops) {
  Simulator sim;
  LinkConfig config;
  config.faults.Add(BernoulliLoss(0.5));
  config.queue_limit_pkts = 100000;
  Link link(&sim, config);
  CollectingDevice dev;
  link.Attach(1, &dev);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    link.Send(0, DataPacket(sim, 10));
  }
  sim.Run();
  const double loss =
      static_cast<double>(link.stats(0).drops_induced) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.5, 0.03);
  // The loss can be lifted at runtime, per direction.
  for (int side = 0; side < 2; ++side) {
    ASSERT_TRUE(link.RemoveImpairment(side, link.pipeline(side).at(0)));
  }
  const uint64_t drops_before = link.stats(0).drops_induced;
  for (int i = 0; i < 1000; ++i) {
    link.Send(0, DataPacket(sim, 10));
  }
  sim.Run();
  EXPECT_EQ(link.stats(0).drops_induced, drops_before);
}

TEST(LinkTest, DirectionsIndependent) {
  Simulator sim;
  LinkConfig config;
  Link link(&sim, config);
  CollectingDevice dev0;
  CollectingDevice dev1;
  link.Attach(0, &dev0);
  link.Attach(1, &dev1);
  link.Send(0, DataPacket(sim));
  link.Send(1, DataPacket(sim));
  sim.Run();
  EXPECT_EQ(dev0.packets.size(), 1u);
  EXPECT_EQ(dev1.packets.size(), 1u);
}

TEST(StarTopologyTest, HostsCanReachEachOther) {
  Simulator sim;
  std::vector<LinkConfig> links(3);
  auto net = MakeStar(&sim, links);
  ASSERT_EQ(net->num_hosts(), 3u);
  CollectingDevice devs[3];
  for (int i = 0; i < 3; ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  // Host 0 -> host 2.
  net->host(0).end.Send(DataPacket(sim, 100, net->host(2).ip));
  sim.Run();
  EXPECT_EQ(devs[2].packets.size(), 1u);
  EXPECT_EQ(devs[0].packets.size(), 0u);
  EXPECT_EQ(devs[1].packets.size(), 0u);
}

TEST(DumbbellTest, CrossTrafficTraversesBottleneck) {
  Simulator sim;
  LinkConfig host_link;
  LinkConfig bottleneck;
  bottleneck.gbps = 1.0;
  auto net = MakeDumbbell(&sim, 2, 2, host_link, bottleneck);
  ASSERT_EQ(net->num_hosts(), 4u);
  CollectingDevice devs[4];
  for (int i = 0; i < 4; ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  net->host(0).end.Send(DataPacket(sim, 100, net->host(2).ip));
  net->host(3).end.Send(DataPacket(sim, 100, net->host(1).ip));
  sim.Run();
  EXPECT_EQ(devs[2].packets.size(), 1u);
  EXPECT_EQ(devs[1].packets.size(), 1u);
}

TEST(FatTreeTest, AllPairsReachable) {
  Simulator sim;
  FatTreeConfig config;
  config.k = 4;
  config.hosts_per_edge = 2;
  auto net = MakeFatTree(&sim, config);
  // k=4: 16 hosts (2 per edge, 2 edges per pod, 4 pods), 4+8+8=20 switches.
  ASSERT_EQ(net->num_hosts(), 16u);
  EXPECT_EQ(net->num_switches(), 20u);

  std::vector<CollectingDevice> devs(net->num_hosts());
  for (size_t i = 0; i < net->num_hosts(); ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  for (size_t i = 0; i < net->num_hosts(); ++i) {
    for (size_t j = 0; j < net->num_hosts(); ++j) {
      if (i != j) {
        net->host(i).end.Send(DataPacket(sim, 10, net->host(j).ip));
      }
    }
  }
  sim.Run();
  for (size_t j = 0; j < net->num_hosts(); ++j) {
    EXPECT_EQ(devs[j].packets.size(), net->num_hosts() - 1) << "host " << j;
  }
}

TEST(FatTreeTest, EcmpKeepsFlowOnOnePath) {
  // Same 4-tuple must never be reordered across the fabric: send a burst and
  // verify order at the destination.
  Simulator sim;
  FatTreeConfig config;
  config.k = 4;
  config.hosts_per_edge = 1;
  auto net = MakeFatTree(&sim, config);
  std::vector<CollectingDevice> devs(net->num_hosts());
  for (size_t i = 0; i < net->num_hosts(); ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  const size_t dst = net->num_hosts() - 1;  // A different pod than host 0.
  for (uint32_t i = 0; i < 100; ++i) {
    auto pkt = DataPacket(sim, 100, net->host(dst).ip);
    pkt->tcp.seq = i;
    net->host(0).end.Send(std::move(pkt));
  }
  sim.Run();
  ASSERT_EQ(devs[dst].packets.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(devs[dst].packets[i]->tcp.seq, i);
  }
}

// A switch whose port 0 receives from `ingress` and whose ports 1..n send to
// one CollectingDevice each, for driving the forwarding table directly.
struct SwitchRig {
  explicit SwitchRig(size_t egress_ports) : sw(&sim, "sw"), devs(egress_ports) {
    links.push_back(std::make_unique<Link>(&sim, LinkConfig{}));
    sw.AddPort(LinkEnd{links[0].get(), 0});
    for (size_t p = 0; p < egress_ports; ++p) {
      links.push_back(std::make_unique<Link>(&sim, LinkConfig{}));
      sw.AddPort(LinkEnd{links.back().get(), 0});
      links.back()->Attach(1, &devs[p]);
    }
  }
  // Injects a packet into the switch's ingress port.
  void Inject(PacketPtr pkt) { links[0]->Send(1, std::move(pkt)); }

  Simulator sim;
  Switch sw;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<CollectingDevice> devs;  // devs[p] sits behind port p + 1.
};

TEST(SwitchTest, EcmpPickIsFlowHashModuloInAddRouteOrder) {
  SwitchRig rig(4);
  const IpAddr dst = MakeIp(10, 0, 9, 9);
  const IpAddr other = MakeIp(10, 0, 9, 10);
  // dst's set, in AddRoute order, is ports {3, 1, 4}; registrations for
  // another destination interleave with it.
  rig.sw.AddRoute(dst, 3);
  rig.sw.AddRoute(other, 1);
  rig.sw.AddRoute(dst, 1);
  rig.sw.AddRoute(other, 2);
  rig.sw.AddRoute(dst, 4);
  const std::vector<int> order = {3, 1, 4};
  std::vector<size_t> want(rig.devs.size(), 0);
  for (uint16_t sport = 1000; sport < 1064; ++sport) {
    auto pkt = MakeTcpPacket(rig.sim.context().pool(), MakeIp(10, 0, 0, 1), sport, dst, 80, 0,
                             0, TcpFlags::kAck, {});
    const uint32_t h = FlowHash(MakeIp(10, 0, 0, 1), sport, dst, 80);
    ++want[static_cast<size_t>(order[h % order.size()] - 1)];
    rig.Inject(std::move(pkt));
  }
  auto pkt = MakeTcpPacket(rig.sim.context().pool(), MakeIp(10, 0, 0, 1), 5, other, 80, 0, 0,
                           TcpFlags::kAck, {});
  const uint32_t h = FlowHash(MakeIp(10, 0, 0, 1), 5, other, 80);
  ++want[static_cast<size_t>((h % 2 == 0 ? 1 : 2) - 1)];
  rig.Inject(std::move(pkt));
  rig.sim.Run();
  for (size_t p = 0; p < rig.devs.size(); ++p) {
    EXPECT_EQ(rig.devs[p].packets.size(), want[p]) << "port " << p + 1;
  }
  EXPECT_GT(want[0] * want[2] * want[3], 0u);  // Every member of the set got traffic.
  EXPECT_EQ(rig.sw.forwarded(), 65u);
  EXPECT_EQ(rig.sw.no_route_drops(), 0u);
}

TEST(SwitchTest, UnknownDestinationCountsNoRouteDrop) {
  SwitchRig rig(2);
  rig.Inject(DataPacket(rig.sim, 10, MakeIp(10, 0, 0, 2)));  // No route installed at all.
  rig.sim.Run();
  EXPECT_EQ(rig.sw.no_route_drops(), 1u);
  rig.sw.AddRoute(MakeIp(10, 0, 0, 2), 1);
  rig.Inject(DataPacket(rig.sim, 10, MakeIp(10, 0, 0, 3)));  // Routed table, other dst.
  rig.Inject(DataPacket(rig.sim, 10, MakeIp(10, 0, 0, 2)));
  rig.sim.Run();
  EXPECT_EQ(rig.sw.no_route_drops(), 2u);
  EXPECT_EQ(rig.sw.forwarded(), 1u);
  EXPECT_EQ(rig.devs[0].packets.size(), 1u);
  EXPECT_EQ(rig.devs[1].packets.size(), 0u);
}

TEST(SwitchTest, ClearRoutesThenComputeRoutesRebuildsTheTable) {
  Simulator sim;
  std::vector<LinkConfig> links(3);
  auto net = MakeStar(&sim, links);
  CollectingDevice devs[3];
  for (int i = 0; i < 3; ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  Switch* tor = net->switch_at(0);
  tor->ClearRoutes();
  net->host(0).end.Send(DataPacket(sim, 100, net->host(2).ip));
  sim.Run();
  EXPECT_EQ(tor->no_route_drops(), 1u);
  EXPECT_EQ(devs[2].packets.size(), 0u);

  net->ComputeRoutes();  // Clears again, then reinstalls every host route.
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      if (src != dst) {
        net->host(static_cast<size_t>(src)).end.Send(DataPacket(sim, 100, net->host(dst).ip));
      }
    }
  }
  sim.Run();
  EXPECT_EQ(tor->no_route_drops(), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(devs[i].packets.size(), 2u) << "host " << i;
  }
}

TEST(FatTreeTest, AllPairsReachableAtK8) {
  Simulator sim;
  FatTreeConfig config;
  config.k = 8;
  config.hosts_per_edge = 2;
  auto net = MakeFatTree(&sim, config);
  // k=8: 8 pods x 4 edges x 2 hosts; 16 core + 32 agg + 32 edge switches.
  ASSERT_EQ(net->num_hosts(), 64u);
  EXPECT_EQ(net->num_switches(), 80u);
  std::vector<CollectingDevice> devs(net->num_hosts());
  for (size_t i = 0; i < net->num_hosts(); ++i) {
    net->host(i).end.Attach(&devs[i]);
  }
  for (size_t i = 0; i < net->num_hosts(); ++i) {
    for (size_t j = 0; j < net->num_hosts(); ++j) {
      if (i != j) {
        net->host(i).end.Send(DataPacket(sim, 10, net->host(j).ip));
      }
    }
  }
  sim.Run();
  uint64_t drops = 0;
  for (size_t s = 0; s < net->num_switches(); ++s) {
    drops += net->switch_at(s)->no_route_drops();
  }
  EXPECT_EQ(drops, 0u);
  for (size_t j = 0; j < net->num_hosts(); ++j) {
    EXPECT_EQ(devs[j].packets.size(), net->num_hosts() - 1) << "host " << j;
  }
}

TEST(NicTest, RssSteersFlowsConsistently) {
  Simulator sim;
  LinkConfig link_config;
  auto net = MakePointToPoint(&sim, link_config);
  NicConfig nic_config;
  nic_config.num_queues = 4;
  SimNic nic(&sim, &net->host(0), nic_config);

  // All packets of one flow land on one queue; both directions match.
  auto pkt = DataPacket(sim, 100, net->host(0).ip);
  const int entry = nic.RedirectionEntryFor(*pkt);
  const int queue = nic.RedirectionEntryQueue(entry);
  for (int i = 0; i < 10; ++i) {
    net->host(1).end.Send(DataPacket(sim, 100, net->host(0).ip));
  }
  sim.Run();
  EXPECT_EQ(nic.RxQueueLen(queue), 10u);
  for (int q = 0; q < 4; ++q) {
    if (q != queue) {
      EXPECT_EQ(nic.RxQueueLen(q), 0u);
    }
  }
}

TEST(NicTest, ManyFlowsSpreadOverQueues) {
  Simulator sim;
  LinkConfig link_config;
  auto net = MakePointToPoint(&sim, link_config);
  NicConfig nic_config;
  nic_config.num_queues = 4;
  SimNic nic(&sim, &net->host(0), nic_config);
  for (uint16_t port = 1000; port < 1256; ++port) {
    auto pkt = MakeTcpPacket(sim.context().pool(), net->host(1).ip, port, net->host(0).ip, 80,
                             0, 0, TcpFlags::kAck, std::vector<uint8_t>(10));
    net->host(1).end.Send(std::move(pkt));
  }
  sim.Run();
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(nic.RxQueueLen(q), 20u);  // ~64 expected per queue.
  }
}

TEST(NicTest, SetActiveQueuesRestrictsSteering) {
  Simulator sim;
  LinkConfig link_config;
  auto net = MakePointToPoint(&sim, link_config);
  NicConfig nic_config;
  nic_config.num_queues = 4;
  SimNic nic(&sim, &net->host(0), nic_config);
  nic.SetActiveQueues(1);
  for (uint16_t port = 1000; port < 1100; ++port) {
    auto pkt = MakeTcpPacket(sim.context().pool(), net->host(1).ip, port, net->host(0).ip, 80,
                             0, 0, TcpFlags::kAck, std::vector<uint8_t>(10));
    net->host(1).end.Send(std::move(pkt));
  }
  sim.Run();
  EXPECT_EQ(nic.RxQueueLen(0), 100u);
  EXPECT_EQ(nic.RxQueueLen(1), 0u);
}

TEST(NicTest, RingOverflowDrops) {
  Simulator sim;
  LinkConfig link_config;
  link_config.gbps = 100.0;
  auto net = MakePointToPoint(&sim, link_config);
  NicConfig nic_config;
  nic_config.num_queues = 1;
  nic_config.ring_entries = 8;
  SimNic nic(&sim, &net->host(0), nic_config);
  for (int i = 0; i < 20; ++i) {
    net->host(1).end.Send(DataPacket(sim, 100, net->host(0).ip));
  }
  sim.Run();
  EXPECT_EQ(nic.RxQueueLen(0), 8u);
  EXPECT_EQ(nic.rx_drops(), 12u);
}

TEST(NicTest, NotifyFiresOnEmptyToNonEmpty) {
  Simulator sim;
  LinkConfig link_config;
  auto net = MakePointToPoint(&sim, link_config);
  NicConfig nic_config;
  nic_config.num_queues = 1;
  SimNic nic(&sim, &net->host(0), nic_config);
  int notifications = 0;
  nic.SetRxNotify(0, [&] { ++notifications; });
  for (int i = 0; i < 5; ++i) {
    net->host(1).end.Send(DataPacket(sim, 100, net->host(0).ip));
  }
  sim.Run();
  EXPECT_EQ(notifications, 1);  // Only the empty->non-empty transition.
  while (nic.PopRx(0)) {
  }
  net->host(1).end.Send(DataPacket(sim, 100, net->host(0).ip));
  sim.Run();
  EXPECT_EQ(notifications, 2);
}

}  // namespace
}  // namespace tas
