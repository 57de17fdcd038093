// Tests for the packet pool (src/net/packet_pool): free-list recycling with
// retained payload capacity, deleter routing between experiment contexts,
// teardown with packets captured in pending event closures, the TAS_NO_POOL
// escape hatch, and — the key invariant — that pooling never changes
// simulation behavior: same-seed runs emit byte-identical flow-event traces
// with the pool on or off.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"
#include "src/net/packet_pool.h"
#include "src/sim/context.h"
#include "src/sim/simulator.h"
#include "src/trace/tracer.h"

namespace tas {
namespace {

TEST(PacketPoolTest, RecyclesAndRetainsCapacity) {
  PacketPool pool;
  const uint8_t* payload_buf = nullptr;
  {
    PacketPtr pkt = pool.Acquire();
    pkt->payload.assign(1448, 0xAB);
    payload_buf = pkt->payload.data();
  }
  EXPECT_EQ(pool.free_size(), 1u);
  {
    PacketPtr pkt = pool.Acquire();
    // Recycled packet: cleared, but the payload buffer kept its capacity.
    EXPECT_TRUE(pkt->payload.empty());
    EXPECT_GE(pkt->payload.capacity(), 1448u);
    pkt->payload.resize(1448);
    EXPECT_EQ(pkt->payload.data(), payload_buf);
  }
  const PacketPoolStats stats = pool.stats();
  EXPECT_EQ(stats.allocated, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.released, 2u);
  EXPECT_EQ(stats.outstanding, 0u);
}

TEST(PacketPoolTest, RecycledPacketIsFullyCleared) {
  PacketPool pool;
  {
    PacketPtr pkt = pool.Acquire();
    pkt->ip.src = MakeIp(10, 0, 0, 1);
    pkt->tcp.seq = 12345;
    pkt->tcp.flags = TcpFlags::kSyn;
    pkt->payload.assign(64, 0xFF);
    pkt->enqueued_at = 999;
  }
  PacketPtr pkt = pool.Acquire();
  const Packet fresh;
  EXPECT_EQ(pkt->ip.src, fresh.ip.src);
  EXPECT_EQ(pkt->tcp.seq, fresh.tcp.seq);
  EXPECT_EQ(pkt->tcp.flags, fresh.tcp.flags);
  EXPECT_EQ(pkt->enqueued_at, fresh.enqueued_at);
  EXPECT_TRUE(pkt->payload.empty());
}

TEST(PacketPoolTest, CloneCopiesEverything) {
  PacketPool pool;
  PacketPtr src = pool.Acquire();
  src->ip.src = MakeIp(10, 0, 0, 1);
  src->ip.dst = MakeIp(10, 0, 0, 2);
  src->ip.ecn = Ecn::kCe;
  src->tcp.src_port = 7;
  src->tcp.dst_port = 9;
  src->tcp.seq = 42;
  src->tcp.flags = TcpFlags::kAck | TcpFlags::kPsh;
  src->payload = {1, 2, 3, 4};
  src->enqueued_at = 123;

  PacketPtr copy = pool.Clone(*src);
  EXPECT_EQ(copy->ip.src, src->ip.src);
  EXPECT_EQ(copy->ip.dst, src->ip.dst);
  EXPECT_EQ(copy->ip.ecn, src->ip.ecn);
  EXPECT_EQ(copy->tcp.seq, src->tcp.seq);
  EXPECT_EQ(copy->tcp.flags, src->tcp.flags);
  EXPECT_EQ(copy->payload, src->payload);
  EXPECT_EQ(copy->enqueued_at, src->enqueued_at);
  EXPECT_NE(copy.get(), src.get());
}

TEST(PacketPoolTest, MakeTcpPacketDrawsFromTheGivenPool) {
  PacketPool pool;
  {
    auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 1, MakeIp(10, 0, 0, 2), 2, 0, 0,
                             TcpFlags::kSyn);
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.free_size(), 1u);
}

TEST(PacketPoolTest, TeardownWithPendingEventsReturnsPackets) {
  // A packet captured in an event closure that never fires must flow back to
  // the pool when the simulator (and with it the closure) is destroyed.
  PacketPool pool;
  {
    Simulator sim;
    PacketPtr pkt = pool.Acquire();
    pkt->payload.resize(64);
    sim.At(1000000, [held = std::move(pkt)] { (void)held; });
    sim.RunUntil(10);  // The event never fires.
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.free_size(), 1u);
}

TEST(PacketPoolTest, PacketReturnsToItsOwnContextWhileAnotherIsAlive) {
  // Two simulators, each with its own context. A packet drawn from one
  // context's pool and dropped on the other's link must drain back to the
  // pool it came from, leaving the other pool untouched.
  Simulator a;
  Simulator b;
  Link link(&b, LinkConfig{});
  link.SetDown(true);
  link.Send(0, MakeTcpPacket(a.context().pool(), MakeIp(10, 0, 0, 1), 1, MakeIp(10, 0, 0, 2),
                             2, 0, 0, TcpFlags::kAck));
  EXPECT_EQ(link.stats(0).drops_down, 1u);
  EXPECT_EQ(a.context().pool().stats().outstanding, 0u);
  EXPECT_EQ(a.context().pool().free_size(), 1u);
  EXPECT_EQ(b.context().pool().stats().allocated, 0u);
  EXPECT_EQ(b.context().pool().free_size(), 0u);
}

TEST(PacketPoolTest, DisabledPoolingBypassesFreeList) {
  ASSERT_TRUE(PacketPool::PoolingEnabled());
  PacketPool::SetPoolingEnabled(false);
  {
    PacketPool pool;
    {
      PacketPtr pkt = pool.Acquire();
      pkt->payload.resize(64);
    }
    const PacketPoolStats stats = pool.stats();
    EXPECT_EQ(stats.unpooled, 1u);
    EXPECT_EQ(stats.allocated, 0u);
    EXPECT_EQ(pool.free_size(), 0u);
  }
  PacketPool::SetPoolingEnabled(true);
}

TEST(PacketPoolTest, FreeListRespectsCap) {
  PacketPool pool(/*max_free=*/2);
  std::vector<PacketPtr> live;
  for (int i = 0; i < 5; ++i) {
    live.push_back(pool.Acquire());
  }
  live.clear();
  EXPECT_EQ(pool.free_size(), 2u);  // The other three were freed for real.
  EXPECT_EQ(pool.stats().released, 5u);
}

// --- Determinism: pooling must not change what the simulation does ---------

// One lossy same-seed TAS bulk transfer; returns the sender's flow-event
// JSONL (handshakes, retransmits, cc updates — pure simulation behavior; no
// pool metrics, which legitimately differ with pooling off).
std::string RunLossyTransfer() {
  TasConfig tas_config;
  tas_config.trace.flow_events = true;

  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 2;
  spec.tas = tas_config;
  spec.tas_overridden = true;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 128;
  link.faults.Add(BernoulliLoss(0.02));
  link.rng_seed = 11;  // Fixed seed: byte-identical reruns.
  auto exp = Experiment::PointToPoint(spec, spec, link);

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 2;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(30));

  std::ostringstream f;
  exp->host(1).tas()->tracer().WriteFlowEventsJsonl(f);
  return f.str();
}

TEST(PacketPoolDeterminismTest, SameSeedIdenticalWithPoolOnAndOff) {
  ASSERT_TRUE(PacketPool::PoolingEnabled());
  const std::string pooled = RunLossyTransfer();
  PacketPool::SetPoolingEnabled(false);
  const std::string unpooled = RunLossyTransfer();
  PacketPool::SetPoolingEnabled(true);
  const std::string pooled_again = RunLossyTransfer();

  EXPECT_FALSE(pooled.empty());
  EXPECT_EQ(pooled, unpooled) << "pooling changed simulation behavior";
  EXPECT_EQ(pooled, pooled_again) << "same-seed rerun not reproducible";
}

}  // namespace
}  // namespace tas
