// google-benchmark microbenchmarks of the real data structures on the TAS
// hot paths: the circular payload buffer, packet wire serialization/parsing,
// reassembly, simulator event throughput (consecutive and hold-model
// schedules), and flow lookup.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/sim/simulator.h"
#include "src/tas/flow_table.h"
#include "src/tcp/reassembly.h"
#include "src/util/ring_buffer.h"
#include "src/util/rng.h"

namespace tas {
namespace {

void BM_ByteRingWriteRead(benchmark::State& state) {
  const size_t chunk = static_cast<size_t>(state.range(0));
  ByteRing ring(64 * 1024);
  std::vector<uint8_t> buf(chunk, 0xAB);
  for (auto _ : state) {
    ring.Write(buf.data(), chunk);
    ring.Read(buf.data(), chunk);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * chunk));
}

void BM_PacketSerialize(benchmark::State& state) {
  PacketPool pool;
  auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 1000, MakeIp(10, 0, 0, 2), 2000, 1, 2,
                           TcpFlags::kAck | TcpFlags::kPsh,
                           std::vector<uint8_t>(static_cast<size_t>(state.range(0))));
  pkt->tcp.has_timestamps = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Serialize(*pkt));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_PacketParse(benchmark::State& state) {
  PacketPool pool;
  auto pkt = MakeTcpPacket(pool, MakeIp(10, 0, 0, 1), 1000, MakeIp(10, 0, 0, 2), 2000, 1, 2,
                           TcpFlags::kAck,
                           std::vector<uint8_t>(static_cast<size_t>(state.range(0))));
  const auto bytes = Serialize(*pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Parse(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}

void BM_ReassemblyInOrder(benchmark::State& state) {
  ReassemblyBuffer buf;
  uint64_t next = 0;
  for (auto _ : state) {
    next += buf.Insert(next, next, 1448).advanced;
  }
}

void BM_ReassemblyOutOfOrder(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    ReassemblyBuffer buf;
    state.ResumeTiming();
    uint64_t next = 0;
    // 64 segments arriving in random order.
    std::vector<uint64_t> offsets;
    for (uint64_t i = 0; i < 64; ++i) {
      offsets.push_back(i * 1448);
    }
    for (size_t i = offsets.size(); i > 1; --i) {
      std::swap(offsets[i - 1], offsets[rng.NextUint64(i)]);
    }
    for (uint64_t offset : offsets) {
      next += buf.Insert(next, offset, 1448).advanced;
    }
    benchmark::DoNotOptimize(next);
  }
}

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    state.ResumeTiming();
    constexpr int kEvents = 10000;
    int fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.At(i, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}

// Classic hold model: the queue keeps state.range(0) events pending; each
// iteration pops one and the popped event pushes one replacement. Delays are
// drawn up front: 15 in 16 uniform over [0, 4096) ns, one in 16 a far timer
// uniform over [10 us, 1 ms). Unlike BM_SimulatorEventThroughput (consecutive
// nanoseconds), pops here keep landing in empty calendar windows, so the
// far-bucket refill path is exercised.
struct HoldModel {
  Simulator sim;
  std::vector<TimeNs> delays;  // Power-of-two size, cycled.
  size_t next = 0;

  TimeNs NextDelay() { return delays[next++ & (delays.size() - 1)]; }
};

struct HoldEvent {
  HoldModel* model;
  void operator()() const {
    model->sim.After(model->NextDelay(), HoldEvent{model});
    model->sim.Stop();  // One event per Run().
  }
};

void BM_SimulatorHoldModel(benchmark::State& state) {
  // Heap-allocated: the simulator's calendar window makes it ~34 KiB.
  auto model = std::make_unique<HoldModel>();
  Rng rng(7);
  model->delays.resize(1 << 16);
  for (TimeNs& delay : model->delays) {
    delay = rng.NextUint64(16) == 0 ? rng.NextInt(Us(10), Ms(1) - 1)
                                    : static_cast<TimeNs>(rng.NextUint64(4096));
  }
  for (int64_t i = 0; i < state.range(0); ++i) {
    model->sim.After(model->NextDelay(), HoldEvent{model.get()});
  }
  for (auto _ : state) {
    model->sim.Run();
  }
  benchmark::DoNotOptimize(model->sim.events_executed());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["refills_per_pop"] =
      static_cast<double>(model->sim.refills()) /
      static_cast<double>(std::max<uint64_t>(1, model->sim.events_executed()));
}

void BM_FlowHash(benchmark::State& state) {
  uint32_t port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SymmetricFlowHash(MakeIp(10, 0, 0, 1),
                                               static_cast<uint16_t>(port++),
                                               MakeIp(10, 0, 0, 2), 80));
  }
}

// The flow-table lookup the fast path performs per packet: the flat
// open-addressing table vs the unordered_map it replaced, at the paper's
// flow counts (Table 3 argues state for thousands of flows stays
// cache-resident; the flat layout is what makes that claim real here).
FlowKey BenchKey(uint32_t i) {
  FlowKey key;
  key.local_port = static_cast<uint16_t>(1000 + (i % 50000));
  key.peer_ip = 0x0A000000u + (i << 5);
  key.peer_port = static_cast<uint16_t>(2000 + (i % 60000));
  return key;
}

void BM_FlowTableLookup(benchmark::State& state) {
  const uint32_t flows = static_cast<uint32_t>(state.range(0));
  FlowTable table;
  for (uint32_t i = 0; i < flows; ++i) {
    table.Insert(BenchKey(i), MakeFlowId(i & kFlowSlotMask, 0));
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(BenchKey(static_cast<uint32_t>(rng.Next()) % flows)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FlowTableLookupUnorderedMap(benchmark::State& state) {
  const uint32_t flows = static_cast<uint32_t>(state.range(0));
  std::unordered_map<FlowKey, FlowId, FlowKeyHash> table;
  for (uint32_t i = 0; i < flows; ++i) {
    table[BenchKey(i)] = MakeFlowId(i & kFlowSlotMask, 0);
  }
  Rng rng(7);
  for (auto _ : state) {
    auto it = table.find(BenchKey(static_cast<uint32_t>(rng.Next()) % flows));
    benchmark::DoNotOptimize(it == table.end() ? kInvalidFlow : it->second);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ByteRingWriteRead)->Arg(64)->Arg(1448)->Arg(16384);
BENCHMARK(BM_PacketSerialize)->Arg(64)->Arg(1448);
BENCHMARK(BM_PacketParse)->Arg(64)->Arg(1448);
BENCHMARK(BM_ReassemblyInOrder);
BENCHMARK(BM_ReassemblyOutOfOrder);
BENCHMARK(BM_SimulatorEventThroughput);
BENCHMARK(BM_SimulatorHoldModel)->Arg(64)->Arg(512)->Arg(4096);
BENCHMARK(BM_FlowHash);
BENCHMARK(BM_FlowTableLookup)->Arg(128)->Arg(4096)->Arg(65536);
BENCHMARK(BM_FlowTableLookupUnorderedMap)->Arg(128)->Arg(4096)->Arg(65536);

}  // namespace
}  // namespace tas

BENCHMARK_MAIN();
