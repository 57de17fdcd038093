// Allocation audit for the simulator hot path (DESIGN.md §8).
//
// This binary replaces global operator new/delete with counting wrappers and
// proves the zero-allocation claims directly:
//
//   BM_SimulatorSchedule  schedule+dispatch through pooled event nodes
//   BM_ScheduleCancel     schedule+cancel churn (tombstones, no frees)
//   BM_PacketPoolAlloc    acquire/release through the packet free list
//
// The steady-state audits additionally cover the flat flow table and flow
// slab (src/tas/flow_table): connection churn at stable capacity recycles
// tombstones and free-list slots without touching the allocator, the port
// table recycles a released port chunk for the next one the ephemeral
// cursor reaches, and the control-loop audit steps a TAS host whose slow
// path iterates over dirty and pending flows every control interval. The
// pacing re-arm audit raises paced flows' rates every iteration, so a raise
// that brings a segment forward cancels its flow's armed pacing timer and
// arms an earlier one. Both warm up until the slow paths are idle and the
// control loop's lists stopped growing, not for a fixed time.
//
// The packet-path audit forwards bursts host -> link -> switch -> link -> NIC
// ring through the Fifo-backed queues, and the libTAS audit runs Send/Recv
// ping-pong on an established TAS connection; neither may allocate once the
// queues and payload rings have grown to their working size.
//
// FOOTPRINT_AUDIT reports the bytes requested from operator new while one
// default TAS host is built, before any traffic, while it opens its first
// connection, and while a 64-host FatTree is built, and FAILs above a bound:
// a host's state must stay sized to what it uses (DESIGN.md §8).
//
// The far-future audit mixes millisecond timers, half of them cancelled,
// with nanosecond events while the clock crosses powers of two it never
// reached during warm-up, which routes entries into event-queue buckets the
// warm-up left untouched.
//
// Each benchmark also reports an "allocs/op" counter. After the benchmarks,
// main() runs a steady-state audit: warm up each path, snapshot the counter,
// run N more operations, and FAIL (nonzero exit) if any allocation happened.
// CI runs this binary; a regression that sneaks a malloc back into the hot
// path turns the build red.
//
// The counting hook must cover every operator new overload (sized, aligned,
// nothrow) or a stray overload bypasses the audit.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/harness/experiment.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/net/topology.h"
#include "src/nic/nic.h"
#include "src/sim/simulator.h"
#include "src/tas/flow_table.h"
#include "src/tas/slow_path.h"
#include "src/util/port_table.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_free_count{0};

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
uint64_t AllocBytes() { return g_alloc_bytes.load(std::memory_order_relaxed); }

void* CountedAlloc(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* ptr = std::malloc(size ? size : 1);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void* CountedAlignedAlloc(size_t size, size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* ptr = std::aligned_alloc(align, (size + align - 1) / align * align);
  if (ptr == nullptr) {
    throw std::bad_alloc();
  }
  return ptr;
}

void CountedFree(void* ptr) {
  if (ptr != nullptr) {
    g_free_count.fetch_add(1, std::memory_order_relaxed);
    std::free(ptr);
  }
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<size_t>(align));
}
void operator delete(void* ptr) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, size_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, size_t) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, size_t, std::align_val_t) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, size_t, std::align_val_t) noexcept { CountedFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { CountedFree(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { CountedFree(ptr); }

namespace tas {
namespace {

// Schedule + dispatch one event per iteration. After the slab warms up the
// node and heap entry are recycled, so steady state must not allocate.
void BM_SimulatorSchedule(benchmark::State& state) {
  Simulator sim;
  uint64_t sink = 0;
  TimeNs when = 0;
  const uint64_t allocs_before_warm = AllocCount();
  for (auto _ : state) {
    sim.At(when, [&sink] { ++sink; });
    when += 10;
    sim.RunUntil(when);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(AllocCount() - allocs_before_warm),
      benchmark::Counter::kAvgIterations);
}

// Schedule + cancel churn: the classic timer pattern. Cancellation bumps a
// generation and pushes nothing; the tombstone is skipped (or purged) later.
void BM_ScheduleCancel(benchmark::State& state) {
  Simulator sim;
  uint64_t sink = 0;
  TimeNs when = 0;
  const uint64_t allocs_before_warm = AllocCount();
  for (auto _ : state) {
    EventHandle h = sim.At(when + 1000, [&sink] { ++sink; });
    h.Cancel();
    when += 10;
    sim.RunUntil(when);
  }
  benchmark::DoNotOptimize(sink);
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(AllocCount() - allocs_before_warm),
      benchmark::Counter::kAvgIterations);
}

// Acquire/release through the pool free list; payload capacity is retained
// across recycles, so steady state must not allocate.
void BM_PacketPoolAlloc(benchmark::State& state) {
  PacketPool pool;
  {
    // Warm one packet with a typical payload so capacity is in the free list.
    PacketPtr pkt = pool.Acquire();
    pkt->payload.resize(1448);
  }
  const uint64_t allocs_before_warm = AllocCount();
  for (auto _ : state) {
    PacketPtr pkt = pool.Acquire();
    pkt->payload.resize(1448);
    benchmark::DoNotOptimize(pkt->payload.data());
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(AllocCount() - allocs_before_warm),
      benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_SimulatorSchedule);
BENCHMARK(BM_ScheduleCancel);
BENCHMARK(BM_PacketPoolAlloc);

// --- Steady-state audit (ALLOC_AUDIT lines; CI fails on any FAIL) ----------

bool AuditSimulatorSchedule() {
  Simulator sim;
  uint64_t sink = 0;
  TimeNs when = 0;
  for (int i = 0; i < 1024; ++i) {  // Warm the slab and the heap vector.
    sim.At(when, [&sink] { ++sink; });
    when += 10;
    sim.RunUntil(when);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    sim.At(when, [&sink] { ++sink; });
    when += 10;
    sim.RunUntil(when);
  }
  const uint64_t allocs = AllocCount() - before;
  std::printf("ALLOC_AUDIT simulator_schedule allocs=%llu %s\n",
              static_cast<unsigned long long>(allocs), allocs == 0 ? "PASS" : "FAIL");
  return allocs == 0;
}

bool AuditScheduleCancel() {
  Simulator sim;
  uint64_t sink = 0;
  TimeNs when = 0;
  for (int i = 0; i < 1024; ++i) {
    EventHandle h = sim.At(when + 1000, [&sink] { ++sink; });
    h.Cancel();
    when += 10;
    sim.RunUntil(when);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    EventHandle h = sim.At(when + 1000, [&sink] { ++sink; });
    h.Cancel();
    when += 10;
    sim.RunUntil(when);
  }
  const uint64_t allocs = AllocCount() - before;
  std::printf("ALLOC_AUDIT schedule_cancel allocs=%llu %s\n",
              static_cast<unsigned long long>(allocs), allocs == 0 ? "PASS" : "FAIL");
  return allocs == 0;
}

// Each 10 ns step schedules a +10 ns event; every 4th step adds a +100 us
// timer and every 32nd a +1 ms one, and half the timers of each kind are
// cancelled 80 ns after they were armed. Warm-up (4 ms) fills the timer
// population and its tombstones; the audited phase runs to 20 ms, crossing
// 2^22, 2^23 and 2^24 ns.
bool AuditFarFutureMix() {
  Simulator sim;
  uint64_t sink = 0;
  TimeNs when = 0;
  std::array<EventHandle, 8> doomed;  // Timers to cancel, by arming step.
  auto step = [&](uint64_t i) {
    sim.At(when + 10, [&sink] { ++sink; });
    doomed[i % doomed.size()].Cancel();  // A stale handle is a no-op.
    if (i % 4 == 0) {
      const TimeNs delay = i % 32 == 0 ? Ms(1) : Us(100);
      EventHandle timer = sim.At(when + delay, [&sink] { ++sink; });
      const uint64_t k = i / 4;  // Timer number; every 8th is a +1 ms one.
      if ((k + k / 8) % 2 == 1) {
        doomed[i % doomed.size()] = timer;
      }
    }
    when += 10;
    sim.RunUntil(when);
  };
  uint64_t i = 0;
  for (; when < Ms(4); ++i) {
    step(i);
  }
  const uint64_t before = AllocCount();
  for (; when < Ms(20); ++i) {
    step(i);
  }
  const uint64_t allocs = AllocCount() - before;
  const bool ok = allocs == 0 && sim.cancelled_events() > 0;
  std::printf("ALLOC_AUDIT far_future_mix allocs=%llu cancelled=%llu %s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(sim.cancelled_events()), ok ? "PASS" : "FAIL");
  return ok;
}

bool AuditPacketPool() {
  PacketPool pool;
  for (int i = 0; i < 64; ++i) {
    PacketPtr pkt = pool.Acquire();
    pkt->payload.resize(1448);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    PacketPtr pkt = pool.Acquire();
    pkt->payload.resize(1448);
    benchmark::DoNotOptimize(pkt->payload.data());
  }
  const uint64_t allocs = AllocCount() - before;
  std::printf("ALLOC_AUDIT packet_pool allocs=%llu %s\n",
              static_cast<unsigned long long>(allocs), allocs == 0 ? "PASS" : "FAIL");
  return allocs == 0;
}

// Connection churn at stable population: erase + reinsert recycles the
// erased key's tombstone on the very probe path that finds it, so the table
// never grows and never rehashes — and therefore never allocates.
bool AuditFlowTable() {
  constexpr uint32_t kFlows = 4096;
  FlowTable table;
  std::vector<FlowKey> keys;
  keys.reserve(kFlows);
  for (uint32_t i = 0; i < kFlows; ++i) {
    FlowKey key;
    key.local_port = static_cast<uint16_t>(1000 + (i % 50000));
    key.peer_ip = 0x0A000000u + (i << 5);
    key.peer_port = static_cast<uint16_t>(2000 + (i % 60000));
    keys.push_back(key);
    table.Insert(key, MakeFlowId(i & kFlowSlotMask, 0));
  }
  for (uint32_t i = 0; i < kFlows; ++i) {  // Warm the churn path.
    table.Erase(keys[i]);
    table.Insert(keys[i], MakeFlowId(i & kFlowSlotMask, 1));
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    const FlowKey& key = keys[static_cast<uint32_t>(i) % kFlows];
    table.Erase(key);
    table.Insert(key, MakeFlowId(static_cast<uint32_t>(i) & kFlowSlotMask, 2));
    benchmark::DoNotOptimize(table.Find(key));
  }
  const uint64_t allocs = AllocCount() - before;
  std::printf("ALLOC_AUDIT flow_table allocs=%llu %s\n",
              static_cast<unsigned long long>(allocs), allocs == 0 ? "PASS" : "FAIL");
  return allocs == 0;
}

// Churn that accretes tombstones: a fixed live set, each step erasing the
// oldest key and inserting a never-seen one. An insert reuses a tombstone
// whenever its group holds one, so occupancy creeps up to the 7/8 trip only
// when the groups are crowded; a live set just under the drift bound (7/16
// of 4,096 slots = 1,792) gets there every ~45K steps, and each trip is a
// same-capacity drift rebuild, which must reuse the arrays the previous
// rebuild replaced. Warm-up runs through the first drift rebuild (it has no
// spares yet); the audited phase spans two more.
bool AuditFlowTableDrift() {
  constexpr uint32_t kLive = 1700;
  auto key_of = [](uint32_t i) {
    FlowKey key;
    key.local_port = static_cast<uint16_t>(1000 + (i % 50000));
    key.peer_ip = 0x0B000000u + i;
    key.peer_port = static_cast<uint16_t>(2000 + (i % 60000));
    return key;
  };
  FlowTable table(4096);
  uint32_t next = 0;
  for (; next < kLive; ++next) {
    table.Insert(key_of(next), MakeFlowId(next & kFlowSlotMask, 0));
  }
  auto churn_until = [&](uint64_t drift_rebuilds) {
    for (int step = 0; step < 1'000'000 && table.stats().drift_rebuilds < drift_rebuilds;
         ++step, ++next) {
      table.Erase(key_of(next - kLive));
      table.Insert(key_of(next), MakeFlowId(next & kFlowSlotMask, 0));
    }
  };
  churn_until(1);
  const uint64_t warm_rebuilds = table.stats().drift_rebuilds;
  const uint64_t before = AllocCount();
  churn_until(warm_rebuilds + 2);
  const uint64_t allocs = AllocCount() - before;
  const uint64_t rebuilds = table.stats().drift_rebuilds - warm_rebuilds;
  const bool ok = allocs == 0 && rebuilds >= 2 && table.size() == kLive;
  std::printf("ALLOC_AUDIT flow_table_drift allocs=%llu drift_rebuilds=%llu capacity=%zu %s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(rebuilds), table.capacity(),
              ok ? "PASS" : "FAIL");
  return ok;
}

// Flow slot recycling through the slab free list: Free resets the flow in
// place and Allocate pops the free list, so steady-state connection turnover
// is allocation-free (payload storage belongs to the connection and is grown
// by its first write).
bool AuditFlowSlab() {
  FlowSlab slab;
  std::vector<FlowId> ids;
  for (int i = 0; i < 1024; ++i) {
    ids.push_back(slab.Allocate());
  }
  for (FlowId& id : ids) {  // Warm the free list.
    slab.Free(id);
    id = slab.Allocate();
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    FlowId& id = ids[static_cast<size_t>(i) % ids.size()];
    slab.Free(id);
    id = slab.Allocate();
    benchmark::DoNotOptimize(slab.Get(id));
  }
  const uint64_t allocs = AllocCount() - before;
  std::printf("ALLOC_AUDIT flow_slab allocs=%llu %s\n",
              static_cast<unsigned long long>(allocs), allocs == 0 ? "PASS" : "FAIL");
  return allocs == 0;
}

// Steps a TAS pair one control interval at a time until neither slow path
// has work queued, no packet is in flight, and host 0's control-loop lists
// kept their capacity over the interval: their working size, however long
// the queued connects take. Returns false if that never happens.
bool WarmUpControlLoop(Experiment* exp) {
  Simulator& sim = exp->sim();
  TasService* tas = exp->host(0).tas();
  const TimeNs limit = sim.Now() + Ms(200);
  size_t capacity = tas->slow_path()->control_list_capacity();
  while (sim.Now() < limit) {
    sim.RunUntil(sim.Now() + tas->config().control_interval);
    const size_t grown = tas->slow_path()->control_list_capacity();
    if (tas->slow_path()->exception_depth() == 0 &&
        exp->host(1).tas()->slow_path()->exception_depth() == 0 &&
        exp->packet_pool().stats().outstanding == 0 && grown == capacity) {
      return true;
    }
    capacity = grown;
  }
  return false;
}

// Opens `n` connections from host 0 of a TAS pair to a port nothing listens
// on (the peer drops the SYNs) and lets the slow path serve every connect.
std::vector<FlowId> OpenUnansweredFlows(Experiment* exp, int n) {
  TasService* tas = exp->host(0).tas();
  std::vector<FlowId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(tas->Connect(exp->host(1).ip(), 9, 0, 0));
  }
  while (tas->slow_path()->exception_depth() > 0) {
    exp->sim().RunUntil(exp->sim().Now() + Us(100));
  }
  return ids;
}

// Allocations and control-loop iterations over `window` of TAS host 0.
struct ControlWindow {
  uint64_t allocs = 0;
  uint64_t iterations = 0;
};
ControlWindow MeasureControlWindow(Experiment* exp, TimeNs window) {
  SlowPath* slow = exp->host(0).tas()->slow_path();
  const uint64_t iterations_before = slow->control_iterations();
  const uint64_t before = AllocCount();
  exp->sim().RunUntil(exp->sim().Now() + window);
  return {AllocCount() - before, slow->control_iterations() - iterations_before};
}

// The slow path's control loop over a steady population of dirty and pending
// flows. Each iteration swaps the service's dirty list with the slow path's
// spare and rebuilds the pending scan list into its spare, so neither list
// allocates once both have reached their working size.
bool AuditControlLoop() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  TasService* tas = exp->host(0).tas();
  const uint8_t payload[64] = {};
  for (FlowId id : OpenUnansweredFlows(exp.get(), 256)) {
    // FIN_WAIT_2 keeps the flow on the pending list without retransmitting;
    // queued, unsent payload re-marks it dirty every iteration without ever
    // arming the retransmission timeout.
    Flow* flow = tas->flow_by_id(id);
    flow->cstate = ConnState::kFinWait2;
    flow->AppWriteTx(payload, sizeof(payload));
    tas->MarkFlowDirty(id);
  }
  const bool warm = WarmUpControlLoop(exp.get());
  const ControlWindow w = MeasureControlWindow(exp.get(), Ms(10));
  const bool ok = warm && w.allocs == 0 && w.iterations > 0;
  std::printf("ALLOC_AUDIT control_loop allocs=%llu iterations=%llu%s %s\n",
              static_cast<unsigned long long>(w.allocs),
              static_cast<unsigned long long>(w.iterations), warm ? "" : " never_warm",
              ok ? "PASS" : "FAIL");
  return ok;
}

// A rate policy that raises the rate by 0.1% every control-loop iteration,
// whatever the feedback.
class RisingRateCc : public RateCc {
 public:
  double Update(const CcFeedback&) override { return rate_bps_ *= 1.001; }
  double rate_bps() const override { return rate_bps_; }

 private:
  double rate_bps_ = 1e6;
};

// Paced flows whose rate the slow path raises every iteration: at ~1 Mbps
// each flow waits on its pacing timer nearly all the time, and a raise that
// brings the segment's time forward cancels the timer and arms an earlier
// one. That path must not allocate either.
bool AuditPacingRearm() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  TasService* tas = exp->host(0).tas();
  const uint8_t payload[4096] = {};
  for (FlowId id : OpenUnansweredFlows(exp.get(), 64)) {
    // Established by fiat: the peer drops the segments, so nothing is ever
    // acked and the queued payload keeps the flow paced and dirty. A full
    // bucket sends the first two segments during warm-up, so the packet
    // path has its working size before the measured window; the third
    // waits ~10 ms on its pacing timer.
    Flow* flow = tas->flow_by_id(id);
    flow->cstate = ConnState::kEstablished;
    SetPeerWindowBytes(flow->fs, 64 * 1024);
    flow->cold().cc = std::make_unique<RisingRateCc>();
    flow->rate_bps = flow->cold().cc->rate_bps();
    flow->tx_tokens = flow->BurstBytes();
    flow->tokens_updated = exp->sim().Now();
    flow->AppWriteTx(payload, sizeof(payload));
    tas->ScheduleFlowTx(id, 0);
    tas->MarkFlowDirty(id);
  }
  const bool warm = WarmUpControlLoop(exp.get());
  const uint64_t rearms_before = tas->stats().pacing_rearms;
  const ControlWindow w = MeasureControlWindow(exp.get(), Ms(10));
  const uint64_t rearms = tas->stats().pacing_rearms - rearms_before;
  const bool ok = warm && w.allocs == 0 && w.iterations > 0 && rearms > 0;
  std::printf("ALLOC_AUDIT pacing_rearm allocs=%llu iterations=%llu rearms=%llu%s %s\n",
              static_cast<unsigned long long>(w.allocs),
              static_cast<unsigned long long>(w.iterations),
              static_cast<unsigned long long>(rearms), warm ? "" : " never_warm",
              ok ? "PASS" : "FAIL");
  return ok;
}

// Bursts of 8 frames from host 0's NIC through its access link, the star's
// switch and host 1's access link into host 1's RX ring, drained every step.
// Warm-up grows each queue (link FIFO, wire, pending-serialize, the switch's
// pending queue, the RX ring) and the pool's free list to their working size;
// after that, forwarding must not allocate.
bool AuditPacketPath() {
  Simulator sim;
  PacketPool& pool = sim.context().pool();
  auto net = MakeStar(&sim, {LinkConfig{}, LinkConfig{}});
  SimNic sender(&sim, &net->host(0), NicConfig{});
  SimNic receiver(&sim, &net->host(1), NicConfig{});
  const IpAddr src = net->host(0).ip;
  const IpAddr dst = net->host(1).ip;
  std::array<PacketPtr, 8> burst;
  std::vector<PacketPtr> out;
  uint64_t delivered = 0;
  TimeNs when = 0;
  auto step = [&](uint16_t i) {
    for (size_t j = 0; j < burst.size(); ++j) {
      PacketPtr pkt = pool.Acquire();
      pkt->ip.src = src;
      pkt->ip.dst = dst;
      pkt->tcp.src_port = static_cast<uint16_t>(1000 + j);
      pkt->tcp.dst_port = i;
      pkt->payload.resize(64);
      burst[j] = std::move(pkt);
    }
    sender.TransmitBurst(burst.data(), burst.size());
    when += Us(1);
    sim.RunUntil(when);
    delivered += receiver.PopRxBurst(0, 64, &out);
    out.clear();
  };
  for (uint16_t i = 0; i < 1000; ++i) {
    step(i);
  }
  const uint64_t warm_delivered = delivered;
  const uint64_t before = AllocCount();
  for (uint16_t i = 0; i < 20000; ++i) {
    step(i);
  }
  const uint64_t allocs = AllocCount() - before;
  const uint64_t forwarded = delivered - warm_delivered;
  const bool ok = allocs == 0 && forwarded >= 20000 * burst.size() - 64;
  std::printf("ALLOC_AUDIT packet_path allocs=%llu forwarded=%llu %s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(forwarded), ok ? "PASS" : "FAIL");
  return ok;
}

// Connect/close churn through a host's port table: eight connections open
// at a time, each new one on the next ephemeral port, the oldest closing.
// The cursor walks the whole ephemeral range (twice), so chunks are taken
// and released as it crosses them; a released chunk is reused by the next.
bool AuditPortTable() {
  PortTable ports;
  ports.Acquire(80);  // A listener keeps its chunk throughout.
  std::array<uint16_t, 8> open{};
  size_t next = 0;
  auto churn = [&] {
    if (open[next] != 0) {
      ports.Release(open[next]);
    }
    open[next] = ports.AllocateEphemeral();
    ports.Acquire(open[next]);
    next = (next + 1) % open.size();
  };
  for (int i = 0; i < 4096; ++i) {
    churn();
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 100000; ++i) {
    churn();
  }
  const uint64_t allocs = AllocCount() - before;
  const bool ok = allocs == 0 && ports.chunks_in_use() <= 3;
  std::printf("ALLOC_AUDIT port_table allocs=%llu chunks=%zu %s\n",
              static_cast<unsigned long long>(allocs), ports.chunks_in_use(),
              ok ? "PASS" : "FAIL");
  return ok;
}

// Closed-loop 64 B ping-pong on one established TAS connection: every reply
// is a Recv + Send on each side, so the libTAS command path (AtCoreHorizon,
// the deferred-push flush, context queues) and the fast path run per message.
class PingPong : public AppHandler {
 public:
  explicit PingPong(Stack* stack) : stack_(stack) {}
  void OnConnected(ConnId conn, bool success) override {
    if (success) {
      Send(conn);
    }
  }
  void OnData(ConnId conn, size_t) override {
    uint8_t buf[256];
    while (stack_->Recv(conn, buf, sizeof(buf)) > 0) {
    }
    ++messages_;
    Send(conn);
  }
  uint64_t messages() const { return messages_; }

 private:
  void Send(ConnId conn) {
    const uint8_t msg[64] = {};
    stack_->Send(conn, msg, sizeof(msg));
  }

  Stack* stack_;
  uint64_t messages_ = 0;
};

bool AuditLibtasSend() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  PingPong server(exp->host(0).stack());
  PingPong client(exp->host(1).stack());
  exp->host(0).stack()->SetHandler(&server);
  exp->host(1).stack()->SetHandler(&client);
  exp->host(0).stack()->Listen(7);
  exp->host(1).stack()->Connect(exp->host(0).ip(), 7);
  exp->sim().RunUntil(Ms(5));  // Handshake, then rings and queues warm up.
  const uint64_t messages_before = client.messages();
  const uint64_t before = AllocCount();
  exp->sim().RunUntil(Ms(25));
  const uint64_t allocs = AllocCount() - before;
  const uint64_t messages = client.messages() - messages_before;
  const bool ok = allocs == 0 && messages > 1000;
  std::printf("ALLOC_AUDIT libtas_send allocs=%llu messages=%llu %s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(messages), ok ? "PASS" : "FAIL");
  return ok;
}

// Bytes one default TAS host (one app core, one context, tracing off)
// requests while it is built: 81,769 when the bound was set (GCC 12,
// libstdc++). Before the flow table, the metric registry's entries and the
// flow-group steering state were sized to use, the same host requested
// 116,769; before the context queues, the latency ring and the port table
// were, 1,200,650.
constexpr uint64_t kIdleTasHostBoundBytes = 84 * 1024;

bool AuditIdleTasHostFootprint() {
  Simulator sim;
  auto net = MakePointToPoint(&sim, LinkConfig{});
  HostSpec spec;
  spec.stack = StackKind::kTas;
  const uint64_t before = AllocBytes();
  auto host = std::make_unique<SimHost>(&sim, &net->host(0), spec);
  const uint64_t bytes = AllocBytes() - before;
  const bool ok = bytes <= kIdleTasHostBoundBytes;
  std::printf("FOOTPRINT_AUDIT idle_tas_host bytes=%llu bound=%llu %s\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(kIdleTasHostBoundBytes), ok ? "PASS" : "FAIL");
  return ok;
}

// Bytes a k=4 FatTree with 1:4 oversubscription (64 TAS hosts with two
// fast-path cores and two app cores each, 20 switches) requests while it is
// built, before any traffic: every per-host structure paid 64 times.
// 4,313,644 when the bound was set (GCC 12, libstdc++), against 6,528,388
// before the flow table, the metric registry's entries and the flow-group
// steering state were sized to use.
constexpr uint64_t kFatTreeBuildBoundBytes = 4400 * 1024;

bool AuditFatTreeBuildFootprint() {
  FatTreeConfig topo;
  topo.k = 4;
  topo.hosts_per_edge = 2 * topo.k;
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 2;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  const uint64_t before = AllocBytes();
  auto exp = Experiment::Custom([&topo](Simulator* sim) { return MakeFatTree(sim, topo); },
                                {spec});
  const uint64_t bytes = AllocBytes() - before;
  const bool ok = exp->num_hosts() == 64 && bytes <= kFatTreeBuildBoundBytes;
  std::printf("FOOTPRINT_AUDIT fattree_build bytes=%llu bound=%llu %s\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(kFatTreeBuildBoundBytes), ok ? "PASS" : "FAIL");
  return ok;
}

// Bytes one default TAS host requests for its first connection (Connect to
// a peer that never answers: flow slot, CC instance, slow-path lists, the
// SYN). The flow slab grows its first chunk here, so the bound separates a
// 64-slot chunk (~19 KB) from the 512-slot chunk it replaced (~147 KB):
// 23,292 bytes when the bound was set (GCC 12, libstdc++), 154,708 with
// 512-slot chunks.
constexpr uint64_t kFirstFlowTasHostBoundBytes = 64 * 1024;

bool AuditFirstFlowTasHostFootprint() {
  Simulator sim;
  auto net = MakePointToPoint(&sim, LinkConfig{});
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto host = std::make_unique<SimHost>(&sim, &net->host(0), spec);
  const uint64_t before = AllocBytes();
  host->tas()->Connect(net->host(1).ip, 9, 0, 0);
  const uint64_t bytes = AllocBytes() - before;
  const bool ok = bytes <= kFirstFlowTasHostBoundBytes;
  std::printf("FOOTPRINT_AUDIT first_flow_tas_host bytes=%llu bound=%llu %s\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(kFirstFlowTasHostBoundBytes),
              ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace
}  // namespace tas

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bool ok = true;
  ok &= tas::AuditSimulatorSchedule();
  ok &= tas::AuditScheduleCancel();
  ok &= tas::AuditFarFutureMix();
  ok &= tas::AuditPacketPool();
  ok &= tas::AuditFlowTable();
  ok &= tas::AuditFlowTableDrift();
  ok &= tas::AuditFlowSlab();
  ok &= tas::AuditPortTable();
  ok &= tas::AuditControlLoop();
  ok &= tas::AuditPacingRearm();
  ok &= tas::AuditPacketPath();
  ok &= tas::AuditLibtasSend();
  ok &= tas::AuditIdleTasHostFootprint();
  ok &= tas::AuditFirstFlowTasHostFootprint();
  ok &= tas::AuditFatTreeBuildFootprint();
  std::printf("ALLOC_AUDIT overall %s (news=%llu frees=%llu)\n", ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(g_alloc_count.load()),
              static_cast<unsigned long long>(g_free_count.load()));
  return ok ? 0 : 1;
}
