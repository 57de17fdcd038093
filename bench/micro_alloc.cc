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
// tombstones and free-list slots without touching the allocator, and the
// control-loop audit steps a TAS host whose slow path iterates over dirty
// and pending flows every control interval.
//
// The packet-path audit forwards bursts host -> link -> switch -> link -> NIC
// ring through the Fifo-backed queues, and the libTAS audit runs Send/Recv
// ping-pong on an established TAS connection; neither may allocate once the
// queues and payload rings have grown to their working size.
//
// FOOTPRINT_AUDIT reports the bytes requested from operator new while one
// default TAS host is built, before any traffic, and while it opens its
// first connection, and FAILs above a bound: a host's state must stay sized
// to what it uses (DESIGN.md §8).
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
  std::vector<FlowId> ids;
  for (int i = 0; i < 256; ++i) {
    // Nothing listens on the port: the peer drops the SYN.
    ids.push_back(tas->Connect(exp->host(1).ip(), 9, 0, 0));
  }
  exp->sim().RunUntil(Ms(1));
  const uint8_t payload[64] = {};
  for (FlowId id : ids) {
    // FIN_WAIT_2 keeps the flow on the pending list without retransmitting;
    // queued, unsent payload re-marks it dirty every iteration without ever
    // arming the retransmission timeout.
    Flow* flow = tas->flow_by_id(id);
    flow->cstate = ConnState::kFinWait2;
    flow->AppWriteTx(payload, sizeof(payload));
    tas->MarkFlowDirty(id);
  }
  exp->sim().RunUntil(Ms(2));  // Both lists reach their working size.
  const uint64_t iterations_before = tas->slow_path()->control_iterations();
  const uint64_t before = AllocCount();
  exp->sim().RunUntil(Ms(12));
  const uint64_t allocs = AllocCount() - before;
  const uint64_t iterations = tas->slow_path()->control_iterations() - iterations_before;
  const bool ok = allocs == 0 && iterations > 0;
  std::printf("ALLOC_AUDIT control_loop allocs=%llu iterations=%llu %s\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(iterations), ok ? "PASS" : "FAIL");
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
    PacketPtr out[64];
    delivered += receiver.PopRxBurst(0, out, 64);
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
// requests while it is built: 181,922 when the bound was set (GCC 12,
// libstdc++). Before the context queues, the latency ring and the port table
// were sized to use, the same host requested 1,200,650.
constexpr uint64_t kIdleTasHostBoundBytes = 200 * 1024;

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
  ok &= tas::AuditFlowSlab();
  ok &= tas::AuditControlLoop();
  ok &= tas::AuditPacketPath();
  ok &= tas::AuditLibtasSend();
  ok &= tas::AuditIdleTasHostFootprint();
  ok &= tas::AuditFirstFlowTasHostFootprint();
  std::printf("ALLOC_AUDIT overall %s (news=%llu frees=%llu)\n", ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(g_alloc_count.load()),
              static_cast<unsigned long long>(g_free_count.load()));
  return ok ? 0 : 1;
}
