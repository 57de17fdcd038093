// Unit and component tests for TAS internals: per-flow state and buffers,
// the service's flow table and port allocator, context queues, the core
// scaler, and rate enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "src/app/bulk.h"
#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/shm/context_queue.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

TEST(FlowBufferTest, AppWriteReadRoundTrip) {
  Flow flow;
  flow.fs.rx_size = 1024;
  flow.fs.tx_size = 1024;

  uint8_t data[300];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(flow.AppWriteTx(data, 300), 300u);
  EXPECT_EQ(flow.TxQueued(), 300u);
  EXPECT_EQ(flow.TxAvailable(), 300u);
  // Table 3's tx_start tracks the storage the first write materialised.
  const uint8_t* tx_base = flow.fs.tx_base;
  EXPECT_EQ(tx_base, flow.cold().tx_mem.data());

  std::vector<uint8_t> out;
  flow.AppendFromTx(flow.fs.tx_tail, 300, &out);
  ASSERT_EQ(out.size(), 300u);
  EXPECT_EQ(std::memcmp(data, out.data(), 300), 0);
}

TEST(FlowBufferTest, WirePositionWrapAround) {
  // Positions are free-running wire sequences: verify modular indexing.
  Flow flow;
  flow.fs.rx_size = 256;
  const uint32_t base = 0xFFFFFF80u;  // Near the 32-bit wrap.
  flow.fs.rx_head = base;
  flow.fs.rx_tail = base;
  uint8_t data[200];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i * 3);
  }
  flow.CopyIntoRx(base, data, 200);  // Crosses the wrap.
  flow.fs.rx_head += 200;
  uint8_t out[200];
  EXPECT_EQ(flow.AppReadRx(out, 200), 200u);
  EXPECT_EQ(std::memcmp(data, out, 200), 0);
  // FlowState is packed: gtest binds references, so copy fields out first.
  const uint32_t rx_tail = flow.fs.rx_tail;
  EXPECT_EQ(rx_tail, base + 200);  // Wrapped past zero.
}

TEST(FlowBufferTest, TxWriteRespectsCapacity) {
  Flow flow;
  flow.fs.tx_size = 128;
  uint8_t data[200] = {};
  EXPECT_EQ(flow.AppWriteTx(data, 200), 128u);
  EXPECT_EQ(flow.AppWriteTx(data, 10), 0u);  // Full.
  // Storage never outgrows the power of two covering the logical size.
  EXPECT_EQ(flow.cold().tx_mem.bytes(), 128u);
}

// A 100,000-byte ring does not divide 2^32. Mapping wire positions with
// `pos % size` put the bytes on either side of the wrap in non-adjacent
// slots, so payload written in one piece and copied out in segments (or the
// reverse) came back scrambled.
TEST(FlowBufferTest, NonPowerOfTwoBuffersRoundTripAcrossWireWrap) {
  constexpr uint32_t kSize = 100000;
  constexpr uint32_t kLen = 4096;
  constexpr uint32_t kSegment = 1448;
  const uint32_t base = 0u - 1000u;  // 2^32 - 1,000.
  Flow flow;
  flow.fs.rx_size = kSize;
  flow.fs.tx_size = kSize;
  flow.fs.rx_head = base;
  flow.fs.rx_tail = base;
  flow.fs.tx_head = base;
  flow.fs.tx_tail = base;
  std::vector<uint8_t> data(kLen);
  for (uint32_t i = 0; i < kLen; ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 5);
  }

  // TX: the app writes the payload in one piece; the fast path segments it.
  ASSERT_EQ(flow.AppWriteTx(data.data(), kLen), kLen);
  std::vector<uint8_t> sent;
  for (uint32_t off = 0; off < kLen; off += kSegment) {
    const uint32_t len = std::min(kSegment, kLen - off);
    flow.AppendFromTx(base + off, len, &sent);
  }
  EXPECT_EQ(sent, data);

  // RX: segments arrive one at a time; the app reads them in one piece.
  for (uint32_t off = 0; off < kLen; off += kSegment) {
    const uint32_t len = std::min(kSegment, kLen - off);
    flow.CopyIntoRx(base + off, data.data() + off, len);
    flow.fs.rx_head += len;
  }
  std::vector<uint8_t> received(kLen);
  ASSERT_EQ(flow.AppReadRx(received.data(), kLen), kLen);
  EXPECT_EQ(received, data);
}

TEST(FlowBufferTest, TokenBucketRefills) {
  Flow flow;
  flow.rate_bps = 8e9;  // 1 byte per ns.
  flow.tx_tokens = 0;
  flow.tokens_updated = 0;
  EXPECT_NEAR(flow.RefillTokens(1000, 1e9), 1000.0, 1.0);
  flow.tx_tokens = 0;
  // Burst cap limits accumulation over long idle.
  EXPECT_NEAR(flow.RefillTokens(1000000, 2896), 2896.0, 1.0);
}

TEST(ContextQueueTest, NotifyOnlyOnEmptyToNonEmpty) {
  AppContext ctx(16);
  int notifications = 0;
  ctx.set_app_notify([&] { ++notifications; });
  ctx.PushEvent(AppEvent{AppEventType::kData, 1, 10});
  ctx.PushEvent(AppEvent{AppEventType::kData, 1, 10});
  EXPECT_EQ(notifications, 1);
  ctx.rx().pop_front();
  ctx.rx().pop_front();
  ctx.PushEvent(AppEvent{AppEventType::kData, 1, 10});
  EXPECT_EQ(notifications, 2);
}

TEST(ContextQueueTest, FullQueueCountsDrops) {
  AppContext ctx(2);
  size_t accepted = 0;
  while (ctx.PushEvent(AppEvent{})) {
    ++accepted;
    if (accepted > 100) {
      FAIL() << "queue never filled";
    }
  }
  EXPECT_GT(ctx.dropped_events(), 0u);
}

// The default context keeps the logical capacity the echo_pipelined overflow
// point depends on: 8,191 events accepted, the 8,192nd refused and counted.
TEST(ContextQueueTest, DefaultContextHolds8191Events) {
  AppContext ctx;
  for (uint32_t i = 0; i < 8191; ++i) {
    ASSERT_TRUE(ctx.PushEvent(AppEvent{AppEventType::kData, 1, i}));
  }
  EXPECT_EQ(ctx.dropped_events(), 0u);
  EXPECT_FALSE(ctx.PushEvent(AppEvent{}));
  EXPECT_EQ(ctx.dropped_events(), 1u);
  EXPECT_EQ(ctx.rx_queue_hw(), 8191u);
  for (uint32_t i = 0; i < 8191; ++i) {
    ASSERT_TRUE(ctx.PushCommand(TxCommand{TxCommandType::kSend, 1, i}));
  }
  EXPECT_FALSE(ctx.PushCommand(TxCommand{}));
  EXPECT_EQ(ctx.rx().front().bytes, 0u);
}

TEST(ContextQueueTest, IdleContextAllocatesNoQueueStorage) {
  AppContext ctx;
  EXPECT_EQ(ctx.rx().capacity(), 0u);
  EXPECT_EQ(ctx.tx().capacity(), 0u);
}

TEST(ContextQueueTest, CommandNotifyFiresFastpathHook) {
  AppContext ctx(16);
  int kicks = 0;
  ctx.set_fastpath_notify([&] { ++kicks; });
  ctx.PushCommand(TxCommand{TxCommandType::kSend, 1, 100});
  ctx.PushCommand(TxCommand{TxCommandType::kSend, 1, 100});
  EXPECT_EQ(kicks, 1);  // Second push: queue already non-empty.
}

class TasServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.stack_cores = 4;
    LinkConfig link;
    exp_ = Experiment::PointToPoint(spec, spec, link);
    service_ = exp_->host(0).tas();
  }
  std::unique_ptr<Experiment> exp_;
  TasService* service_ = nullptr;
};

TEST_F(TasServiceFixture, FlowAllocationAndLookup) {
  const FlowKey key{80, MakeIp(10, 0, 0, 2), 5555};
  const FlowId id = service_->AllocateFlow(key);
  EXPECT_NE(id, kInvalidFlow);
  EXPECT_EQ(service_->LookupFlowId(key), id);
  EXPECT_EQ(service_->num_flows(), 1u);

  Flow* flow = service_->flow_by_id(id);
  ASSERT_NE(flow, nullptr);
  // FlowState is packed: gtest binds references, so copy fields out first.
  const uint32_t rx_size = flow->fs.rx_size;
  EXPECT_EQ(rx_size, service_->config().rx_buffer_bytes);
  // Transmit positions anchored at iss+1 with nothing outstanding.
  const uint32_t seq = flow->fs.seq;
  const uint32_t tx_tail = flow->fs.tx_tail;
  const uint32_t tx_sent = flow->fs.tx_sent;
  EXPECT_EQ(seq, tx_tail);
  EXPECT_EQ(tx_sent, 0u);

  service_->FreeFlow(id);
  EXPECT_EQ(service_->LookupFlowId(key), kInvalidFlow);
  EXPECT_EQ(service_->num_flows(), 0u);
  EXPECT_EQ(service_->flow_by_id(id), nullptr);
}

// AllocateEphemeralPort walks 20000..65000, wraps, and skips ports a live
// flow is bound to.
TEST_F(TasServiceFixture, EphemeralPortsWrapAndSkipBusyPorts) {
  const uint16_t first = service_->AllocateEphemeralPort();
  EXPECT_EQ(first, 20000);
  service_->AllocateFlow(FlowKey{first, MakeIp(10, 0, 0, 2), 1000});
  service_->AllocateFlow(FlowKey{20002, MakeIp(10, 0, 0, 2), 1000});
  EXPECT_EQ(service_->AllocateEphemeralPort(), 20001);
  EXPECT_EQ(service_->AllocateEphemeralPort(), 20003);
  uint16_t port = 0;
  while (port != 65000) {
    port = service_->AllocateEphemeralPort();
  }
  EXPECT_EQ(service_->AllocateEphemeralPort(), 20001);
  EXPECT_EQ(service_->AllocateEphemeralPort(), 20003);
}

TEST_F(TasServiceFixture, EphemeralPortsUniqueWhileInUse) {
  std::set<uint16_t> ports;
  for (int i = 0; i < 100; ++i) {
    const uint16_t port = service_->AllocateEphemeralPort();
    EXPECT_TRUE(ports.insert(port).second) << "port reused while free";
    service_->AllocateFlow(FlowKey{port, MakeIp(10, 0, 0, 2), 1000});
  }
}

TEST_F(TasServiceFixture, CoreForFlowStableAndInActiveRange) {
  for (int i = 0; i < 64; ++i) {
    const FlowKey key{static_cast<uint16_t>(2000 + i), MakeIp(10, 0, 0, 2),
                      static_cast<uint16_t>(3000 + i)};
    const FlowId id = service_->AllocateFlow(key);
    Flow* flow = service_->flow_by_id(id);
    flow->fs.local_port = key.local_port;
    flow->fs.peer_ip = key.peer_ip;
    flow->fs.peer_port = key.peer_port;
    const int core = service_->CoreForFlow(*flow);
    EXPECT_GE(core, 0);
    EXPECT_LT(core, service_->active_cores());
    EXPECT_EQ(core, service_->CoreForFlow(*flow));  // Deterministic.
  }
}

TEST_F(TasServiceFixture, SetActiveCoresRestersAndRecordsTrace) {
  service_->SetActiveCores(2);
  EXPECT_EQ(service_->active_cores(), 2);
  service_->SetActiveCores(4);
  service_->SetActiveCores(1);
  const auto& points = service_->core_trace().points();
  ASSERT_GE(points.size(), 4u);
  EXPECT_EQ(points.back().second, 1.0);
  // All RSS entries now point at queue 0.
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(service_->nic()->RedirectionEntryQueue(i), 0);
  }
}

TEST_F(TasServiceFixture, FreedFlowHoldsNoStorage) {
  const FlowId id = service_->AllocateFlow(FlowKey{80, MakeIp(10, 0, 0, 2), 5556});
  Flow* flow = service_->flow_by_id(id);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->cold().tx_mem.bytes(), 0u);  // Nothing before the first write.
  const uint8_t data[64] = {};
  ASSERT_EQ(flow->AppWriteTx(data, sizeof(data)), sizeof(data));
  EXPECT_GT(flow->cold().tx_mem.bytes(), 0u);

  service_->FreeFlow(id);
  // The slab slot keeps its address; the freed flow holds no payload memory.
  EXPECT_EQ(flow->cold().tx_mem.bytes(), 0u);
  EXPECT_EQ(flow->cold().rx_mem.bytes(), 0u);
  const uint8_t* tx_base = flow->fs.tx_base;
  EXPECT_EQ(tx_base, nullptr);
}

TEST(TasScalerTest, CoresGrowUnderLoadAndShrinkWhenIdle) {
  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  server_spec.app_cores = 4;
  server_spec.tas_overridden = true;
  server_spec.tas.max_fastpath_cores = 4;
  server_spec.tas.dynamic_cores = true;
  server_spec.tas.monitor_interval = Ms(1);
  HostSpec client_spec;
  client_spec.stack = StackKind::kIx;
  client_spec.app_cores = 4;
  client_spec.engine_overridden = true;
  client_spec.engine = IxStackConfig();
  client_spec.engine.costs = &MinimalCostModel();
  LinkConfig link;
  link.gbps = 40.0;
  auto exp = Experiment::PointToPoint(server_spec, client_spec, link);

  EchoServerConfig sc;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 128;
  cc.pipeline_depth = 8;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();

  EXPECT_EQ(exp->host(0).tas()->active_cores(), 1);  // Dynamic start: 1 core.
  exp->sim().RunUntil(Ms(100));
  const int under_load = exp->host(0).tas()->active_cores();
  EXPECT_GT(under_load, 1) << "scaler never added cores under load";

  // Stop the load; cores must be released.
  exp->host(1).stack()->SetHandler(nullptr);
  exp->sim().RunUntil(Ms(400));
  EXPECT_EQ(exp->host(0).tas()->active_cores(), 1)
      << "scaler failed to release idle cores";
}

TEST(TasRateTest, FastPathEnforcesSlowPathRate) {
  // Cap one flow's rate via the CC floor and verify goodput obeys it.
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  spec.tas.dctcp.max_bps = 50e6;  // Hard policy cap: 50 Mbps.
  spec.tas.dctcp.initial_bps = 50e6;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 1;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(20));
  rx.BeginMeasurement();
  exp->sim().RunUntil(Ms(120));
  // Policy enforced on the fast path: goodput stays near the 50 Mbps cap
  // even though the link is 10G.
  EXPECT_LT(rx.ThroughputBps(), 80e6);
  EXPECT_GT(rx.ThroughputBps(), 20e6);
}

// Appends every byte it receives.
class ByteSink : public AppHandler {
 public:
  explicit ByteSink(Stack* stack) : stack_(stack) {}
  void OnData(ConnId conn, size_t bytes) override {
    const size_t at = data_.size();
    data_.resize(at + bytes);
    data_.resize(at + stack_->Recv(conn, data_.data() + at, bytes));
  }
  const std::vector<uint8_t>& data() const { return data_; }

 private:
  Stack* stack_;
  std::vector<uint8_t> data_;
};

// Streams `total` bytes whose value is a function of their stream offset.
class PatternSource : public AppHandler {
 public:
  PatternSource(Stack* stack, size_t total) : stack_(stack), total_(total) {}
  void OnConnected(ConnId conn, bool success) override {
    if (success) {
      Pump(conn);
    }
  }
  void OnSendSpace(ConnId conn, size_t) override { Pump(conn); }

 private:
  void Pump(ConnId conn) {
    uint8_t chunk[1000];
    while (sent_ < total_) {
      const size_t want = std::min(sizeof(chunk), total_ - sent_);
      for (size_t i = 0; i < want; ++i) {
        chunk[i] = static_cast<uint8_t>((sent_ + i) % 251);
      }
      const size_t n = stack_->Send(conn, chunk, want);
      sent_ += n;
      if (n < want) {
        break;
      }
    }
  }

  Stack* stack_;
  size_t total_;
  size_t sent_ = 0;
};

// A 64 B echo flow materialises a few KiB of its payload buffers while its
// window keeps reading the full configured size.
TEST(TasBufferTest, EchoFlowStorageStaysSmall) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  EchoServer server(&exp->sim(), exp->host(0).stack(), EchoServerConfig{});
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.pipeline_depth = 4;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(20));
  ASSERT_GT(client.completed(), 100u);

  // The client's one connection took the first ephemeral port.
  const Flow* flows[] = {
      exp->host(1).tas()->LookupFlow(FlowKey{20000, exp->host(0).ip(), 7777}),
      exp->host(0).tas()->LookupFlow(FlowKey{7777, exp->host(1).ip(), 20000}),
  };
  for (const Flow* flow : flows) {
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->RxFree() + flow->RxUsed(), exp->host(0).tas()->config().rx_buffer_bytes);
    for (const RingStorage<uint32_t>* mem : {&flow->cold().rx_mem, &flow->cold().tx_mem}) {
      EXPECT_GT(mem->bytes(), 0u);
      EXPECT_LE(mem->bytes(), 4096u);
    }
  }
}

// 1 MB through 128 KiB buffers: the sender's storage grows through several
// doublings while its ring wraps, and every byte arrives intact.
TEST(TasBufferTest, MegabyteThroughLazyBuffersIsByteExact) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.rx_buffer_bytes = 128 * 1024;
  spec.tas.tx_buffer_bytes = 128 * 1024;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  constexpr size_t kTotal = 1 << 20;
  ByteSink sink(exp->host(0).stack());
  exp->host(0).stack()->SetHandler(&sink);
  exp->host(0).stack()->Listen(7000);
  PatternSource source(exp->host(1).stack(), kTotal);
  exp->host(1).stack()->SetHandler(&source);
  exp->host(1).stack()->Connect(exp->host(0).ip(), 7000);
  exp->sim().RunUntil(Sec(2));

  ASSERT_EQ(sink.data().size(), kTotal);
  size_t first_bad = kTotal;
  for (size_t i = 0; i < kTotal && first_bad == kTotal; ++i) {
    if (sink.data()[i] != static_cast<uint8_t>(i % 251)) {
      first_bad = i;
    }
  }
  EXPECT_EQ(first_bad, kTotal) << "first corrupted byte";
}

// One TAS sender (host 1) streaming `total` bytes to a TAS sink (host 0)
// on a point-to-point link; the sender connects at `connect_at`.
class PacedStream {
 public:
  explicit PacedStream(TimeNs connect_at = 0, size_t total = 200'000) {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    exp_ = Experiment::PointToPoint(spec, spec, LinkConfig{});
    sink_ = std::make_unique<ByteSink>(exp_->host(0).stack());
    exp_->host(0).stack()->SetHandler(sink_.get());
    exp_->host(0).stack()->Listen(7000);
    source_ = std::make_unique<PatternSource>(exp_->host(1).stack(), total);
    exp_->host(1).stack()->SetHandler(source_.get());
    exp_->sim().At(connect_at,
                   [this] { exp_->host(1).stack()->Connect(exp_->host(0).ip(), 7000); });
  }

  Experiment& exp() { return *exp_; }
  Simulator& sim() { return exp_->sim(); }
  TasService* sender() { return exp_->host(1).tas(); }
  TasService* receiver() { return exp_->host(0).tas(); }
  // The sender's flow (the first ephemeral port), or null before the connect.
  Flow* flow() { return sender()->LookupFlow(key()); }
  FlowKey key() { return FlowKey{20000, exp_->host(0).ip(), 7000}; }
  uint64_t segments_sent() { return sender()->stats().fastpath_tx_packets; }

  // Runs in 1 us steps until `done()` holds or 10 ms of simulated time pass.
  template <typename Done>
  bool StepUntil(Done done) {
    while (!done() && sim().Now() < Ms(10)) {
      sim().RunUntil(sim().Now() + Us(1));
    }
    return done();
  }

 private:
  std::unique_ptr<Experiment> exp_;
  std::unique_ptr<ByteSink> sink_;
  std::unique_ptr<PatternSource> source_;
};

// A new flow starts with a full bucket, so its first segments leave at the
// same offset from its connect whenever it opens: at 0 ms as at 5 ms.
TEST(TasRateTest, NewFlowStartsWithAFullBucket) {
  std::vector<TimeNs> offsets[2];
  const TimeNs connect_at[2] = {0, Ms(5)};
  for (int i = 0; i < 2; ++i) {
    PacedStream rig(connect_at[i]);
    ASSERT_TRUE(rig.StepUntil([&] { return rig.flow() != nullptr; }));
    EXPECT_DOUBLE_EQ(rig.flow()->tx_tokens, rig.flow()->BurstBytes());
    uint64_t seen = 0;
    while (offsets[i].size() < 4 && rig.StepUntil([&] { return rig.segments_sent() > seen; })) {
      seen = rig.segments_sent();
      offsets[i].push_back(rig.sim().Now() - connect_at[i]);
    }
  }
  ASSERT_EQ(offsets[0].size(), 4u);
  EXPECT_EQ(offsets[0], offsets[1]);
}

// A raised rate takes effect at once (paper §3.1-3.2: the slow path sets
// the rate, the fast path's bucket enforces it). A new flow sends what its
// full bucket allows, and its next segment waits on a pacing timer armed at
// the 10 Mbps initial rate. Each control iteration doubles the rate (first
// on the burst's ACKs, then because the bucket holds the flow), and each
// doubling moves the flow's one live pacing event to when the new rate
// allows, until the segment leaves.
TEST(TasRateTest, RaisedRateMovesArmedPacingTimer) {
  PacedStream rig;
  TasService* tas = rig.sender();
  Simulator& sim = rig.sim();
  ASSERT_TRUE(rig.StepUntil([&] {
    return rig.flow() != nullptr && rig.flow()->cold().pacing_timer.valid();
  }));
  Flow* flow = rig.flow();
  const FlowId id = tas->LookupFlowId(rig.key());
  const TimeNs stale = flow->next_tx_time;
  const uint64_t sent = rig.segments_sent();
  const uint64_t cancelled = sim.cancelled_events();
  // The bucket as the timer was armed: `credit` bytes at `armed_at`, short
  // of the `len`-byte segment.
  const TimeNs armed_at = flow->tokens_updated;
  const double credit = flow->tx_tokens;
  const uint32_t len = flow->NextSegmentLen();
  EXPECT_EQ(sent, 2u);  // The full bucket's burst.
  EXPECT_DOUBLE_EQ(flow->rate_bps, 10e6);
  ASSERT_EQ(tas->stats().pacing_rearms, 0u);
  tas->flow_trace().EnableFlow(id);  // Passive: stamps the segment's send time.

  TimeNs deadline = stale;
  double rate = flow->rate_bps;
  uint64_t rearms = 0;
  while (rig.StepUntil([&] {
    return tas->stats().pacing_rearms > rearms || rig.segments_sent() > sent;
  })) {
    if (rig.segments_sent() > sent) {
      break;
    }
    ++rearms;
    ASSERT_EQ(tas->stats().pacing_rearms, rearms);
    EXPECT_DOUBLE_EQ(flow->rate_bps, 2 * rate);
    rate = flow->rate_bps;
    // The bucket refills at the rate in force when it refills, so the
    // segment may leave once `len - credit` bytes accrue at the new rate
    // from `armed_at`, or now if that instant has passed.
    const TimeNs rearmed = flow->next_tx_time;
    EXPECT_NEAR(static_cast<double>(rearmed),
                std::max(static_cast<double>(sim.Now()),
                         static_cast<double>(armed_at) + (len - credit) * 8e9 / rate),
                2.0);
    EXPECT_LT(rearmed, deadline);
    deadline = rearmed;
    // One live pacing event: each stale one was cancelled, not left to fire.
    EXPECT_TRUE(flow->cold().pacing_timer.valid());
    EXPECT_EQ(sim.cancelled_events(), cancelled + rearms);
  }
  // Successive re-arms, and the segment left at the last one's deadline
  // (plus the fast-path core's dispatch), not before.
  EXPECT_GE(rearms, 2u);
  EXPECT_EQ(rig.segments_sent(), sent + 1);
  TimeNs left_at = -1;
  for (const FlowEvent& e : tas->flow_trace().Events()) {
    if (e.type == FlowEventType::kDataTx && left_at < 0) {
      left_at = e.t;
    }
  }
  EXPECT_GE(left_at, deadline);
  EXPECT_LE(left_at, deadline + Us(2));
  EXPECT_EQ(tas->stats().pacing_rearm_saved_ns, static_cast<uint64_t>(stale - deadline));

  // A lowered rate leaves the armed timer alone: the bucket check when it
  // fires re-arms the flow.
  ASSERT_TRUE(rig.StepUntil([&] { return flow->cold().pacing_timer.valid(); }));
  const TimeNs armed = flow->next_tx_time;
  const uint64_t cancelled_before_cut = sim.cancelled_events();
  tas->PublishRate(id, *flow, flow->rate_bps / 2);
  EXPECT_EQ(flow->next_tx_time, armed);
  EXPECT_TRUE(flow->cold().pacing_timer.valid());
  EXPECT_EQ(sim.cancelled_events(), cancelled_before_cut);
}

// Slow start keeps doubling while a flow is held by its own bucket with
// nothing in flight (RFC 7661's rule: grow when congestion control is what
// limits the flow). An interval without ACKs then says nothing about the
// network, so the flow doubles at every control iteration until its
// segment leaves. A flow with bytes in flight and no ACKs does not grow,
// and neither does an idle flow.
TEST(TasRateTest, SlowStartGrowsWhileHeldByItsBucket) {
  {
    PacedStream rig;
    TasService* tas = rig.sender();
    const SlowPath& slow_path = *tas->slow_path();
    // The burst is acked and the next segment waits on the bucket.
    ASSERT_TRUE(rig.StepUntil([&] {
      const Flow* f = rig.flow();
      return f != nullptr && f->cold().pacing_timer.valid() && f->fs.tx_sent == 0;
    }));
    Flow* flow = rig.flow();
    const uint64_t sent = rig.segments_sent();
    const uint64_t growths = tas->stats().cc_bucket_growths;
    uint64_t visits = slow_path.control_iterations();
    double rate = flow->rate_bps;
    int doublings = 0;
    while (rig.StepUntil([&] {
      return slow_path.control_iterations() > visits || rig.segments_sent() > sent;
    })) {
      if (rig.segments_sent() > sent) {
        break;
      }
      // The flow is the host's only one, so each iteration visits it once.
      ASSERT_EQ(slow_path.control_iterations(), visits + 1);
      visits = slow_path.control_iterations();
      ASSERT_DOUBLE_EQ(flow->rate_bps, 2 * rate) << "iteration " << doublings;
      rate = flow->rate_bps;
      ++doublings;
    }
    // The first doubling is the burst's ACKs'; the rest are the bucket's.
    EXPECT_GE(doublings, 3);
    EXPECT_EQ(tas->stats().cc_bucket_growths - growths, static_cast<uint64_t>(doublings - 1));
    EXPECT_EQ(rig.segments_sent(), sent + 1);
    // The sink's flow only acknowledges: idle, it keeps the initial rate
    // through the whole transfer.
    rig.sim().RunUntil(Ms(10));
    const Flow* idle = rig.receiver()->LookupFlow(FlowKey{7000, rig.exp().host(1).ip(), 20000});
    ASSERT_NE(idle, nullptr);
    EXPECT_DOUBLE_EQ(idle->rate_bps, 10e6);
    EXPECT_EQ(rig.receiver()->stats().cc_bucket_growths, 0u);
  }

  // The burst is out and its ACKs are lost: the next segment waits on the
  // bucket with bytes in flight, and the rate holds until the timeout.
  PacedStream rig;
  TasService* tas = rig.sender();
  ASSERT_TRUE(rig.StepUntil([&] {
    return rig.flow() != nullptr && rig.flow()->cold().pacing_timer.valid();
  }));
  rig.exp().host_link(1)->SetDown(true);
  const Flow* flow = rig.flow();
  const uint64_t visits = tas->slow_path()->control_iterations();
  // Until the timeout fires: the highest rate and the fewest bytes in flight.
  double max_rate = 0;
  uint32_t min_in_flight = UINT32_MAX;
  ASSERT_TRUE(rig.StepUntil([&] {
    if (tas->stats().timeout_retransmits > 0) {
      return true;
    }
    const uint32_t in_flight = flow->fs.tx_sent;  // Packed field: copy first.
    max_rate = std::max(max_rate, flow->rate_bps);
    min_in_flight = std::min(min_in_flight, in_flight);
    return false;
  }));
  EXPECT_DOUBLE_EQ(max_rate, 10e6);
  EXPECT_GT(min_in_flight, 0u);
  EXPECT_EQ(tas->stats().timeout_retransmits, 1u);
  EXPECT_GE(tas->slow_path()->control_iterations() - visits, 10u);
  EXPECT_EQ(tas->stats().cc_bucket_growths, 0u);
}

TEST(TasStateTest, BucketHelpersRoundTrip) {
  FlowState fs;
  SetBucket(fs, 0x123456);
  EXPECT_EQ(BucketOf(fs), 0x123456u);
  SetPeerWindowBytes(fs, 65536);
  EXPECT_EQ(PeerWindowBytes(fs), 65536u);
  // Saturation at the 16-bit granule limit.
  SetPeerWindowBytes(fs, 1ull << 40);
  const uint16_t window = fs.window;  // Packed field: copy before EXPECT.
  EXPECT_EQ(window, 0xFFFF);
}

}  // namespace
}  // namespace tas
