// Tests for the simulated CPU cores and the calibrated cost models.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/cpu/app_event_loop.h"
#include "src/cpu/core.h"
#include "src/cpu/cost_model.h"

namespace tas {
namespace {

TEST(CoreTest, ChargeSerializesWork) {
  Simulator sim;
  Core core(&sim, 0, 1.0);  // 1 GHz: 1 cycle == 1 ns.
  const TimeNs first = core.Charge(CpuModule::kApp, 100);
  EXPECT_EQ(first, 100);
  // Second charge starts when the first finishes.
  const TimeNs second = core.Charge(CpuModule::kApp, 50);
  EXPECT_EQ(second, 150);
  EXPECT_EQ(core.busy_until(), 150);
}

TEST(CoreTest, ChargeAfterIdleStartsAtNow) {
  Simulator sim;
  Core core(&sim, 0, 1.0);
  core.Charge(CpuModule::kApp, 100);
  sim.At(1000, [&] {
    const TimeNs done = core.Charge(CpuModule::kApp, 10);
    EXPECT_EQ(done, 1010);
  });
  sim.Run();
}

TEST(CoreTest, FrequencyScalesDuration) {
  Simulator sim;
  Core fast(&sim, 0, 2.0);
  Core slow(&sim, 1, 1.0);
  EXPECT_EQ(fast.Charge(CpuModule::kTcp, 1000), 500);
  EXPECT_EQ(slow.Charge(CpuModule::kTcp, 1000), 1000);
}

TEST(CoreTest, ModuleAccounting) {
  Simulator sim;
  Core core(&sim, 0, 2.1);
  core.Charge(CpuModule::kDriver, 100);
  core.Charge(CpuModule::kTcp, 200);
  core.Charge(CpuModule::kTcp, 300);
  EXPECT_EQ(core.cycles(CpuModule::kDriver), 100u);
  EXPECT_EQ(core.cycles(CpuModule::kTcp), 500u);
  EXPECT_EQ(core.total_cycles(), 600u);
}

TEST(CoreTest, UtilizationWindow) {
  Simulator sim;
  Core core(&sim, 0, 1.0);
  const TimeNs busy0 = core.busy_ns();
  core.Charge(CpuModule::kApp, 500);  // 500ns busy.
  sim.At(1000, [&] {
    EXPECT_NEAR(core.Utilization(busy0, 0, sim.Now()), 0.5, 0.01);
  });
  sim.Run();
}

TEST(CoreTest, ResetAccountingClears) {
  Simulator sim;
  Core core(&sim, 0, 1.0);
  core.Charge(CpuModule::kApp, 100);
  core.ResetAccounting();
  EXPECT_EQ(core.total_cycles(), 0u);
  EXPECT_EQ(core.busy_ns(), 0);
  EXPECT_EQ(core.max_ahead_ns(), 0);
}

// max_ahead_ns is the high-water of booked work ahead of the clock, read
// right after each charge.
TEST(CoreTest, MaxAheadIsTheHighWaterOfBookedWork) {
  Simulator sim;
  Core core(&sim, 0, 1.0);
  core.Charge(CpuModule::kTcp, 100);
  core.Charge(CpuModule::kTcp, 100);
  EXPECT_EQ(core.max_ahead_ns(), 200);
  sim.At(1000, [&] { core.Charge(CpuModule::kTcp, 50); });
  sim.Run();
  EXPECT_EQ(core.max_ahead_ns(), 200);
  sim.At(2000, [&] {
    core.Charge(CpuModule::kTcp, 300);
    core.Charge(CpuModule::kTcp, 10);
  });
  sim.Run();
  EXPECT_EQ(core.max_ahead_ns(), 310);
}

// Runs an AppEventLoop (batch 16, 10 cycles per event) over `events`, each
// worth its own value in notifications (or one each with `units_fn` null, as
// EngineStack configures it), and returns the sizes of the batches it
// dispatched.
std::vector<size_t> DispatchedBatches(const std::vector<size_t>& events,
                                      AppEventLoop<size_t>::UnitsFn units_fn) {
  Simulator sim;
  Core core(&sim, 0, 1.0);
  Fifo<size_t> source(64);
  std::vector<size_t> batches;
  AppEventLoop<size_t> loop(
      &sim, &core, &source, AppEventLoopConfig{16}, [](size_t) { return uint64_t{10}; },
      std::move(units_fn),
      [&batches](const std::vector<size_t>& batch) { batches.push_back(batch.size()); });
  for (const size_t e : events) {
    source.push_back(e);
  }
  loop.Wake();
  sim.Run();
  return batches;
}

// The batch limit counts notifications, not queue entries: 16 entries of two
// notifications each (libTAS's data entries carrying received bytes and
// freed send space) make two batches of 8, the same poll granularity as the
// 32 one-notification entries they replace.
TEST(AppEventLoopTest, BatchLimitCountsNotifications) {
  const auto units = [](size_t e) { return e; };
  EXPECT_EQ(DispatchedBatches(std::vector<size_t>(16, 2), units),
            (std::vector<size_t>{8, 8}));
  EXPECT_EQ(DispatchedBatches(std::vector<size_t>(32, 1), units),
            (std::vector<size_t>{16, 16}));
}

// The last-entry rule: an entry that would take the batch past the limit
// waits for the next batch, so no batch exceeds 16 notifications; a batch's
// first entry always goes.
TEST(AppEventLoopTest, EntryThatWouldOverflowTheBatchWaits) {
  const auto units = [](size_t e) { return e; };
  std::vector<size_t> events(15, 1);
  events.push_back(2);
  events.push_back(1);
  EXPECT_EQ(DispatchedBatches(events, units), (std::vector<size_t>{15, 2}));
  EXPECT_EQ(DispatchedBatches({20, 1}, units), (std::vector<size_t>{1, 1}));
}

// Without a units function (EngineStack) every event is one notification.
TEST(AppEventLoopTest, NullUnitsCountsOnePerEvent) {
  EXPECT_EQ(DispatchedBatches(std::vector<size_t>(16, 2), nullptr),
            (std::vector<size_t>{16}));
}

TEST(CostModelTest, Table1TotalsMatchPaperBallpark) {
  // One request = rx + tx packet + both API ops + other.
  EXPECT_NEAR(static_cast<double>(LinuxCostModel().RequestCycles()), 16750 - 1070, 1500);
  EXPECT_NEAR(static_cast<double>(IxCostModel().RequestCycles()), 2730 - 760, 300);
  EXPECT_NEAR(static_cast<double>(TasSocketsCostModel().RequestCycles()), 2570 - 680, 500);
}

TEST(CostModelTest, LowLevelApiCheaperThanSockets) {
  EXPECT_LT(TasLowLevelCostModel().rx_api + TasLowLevelCostModel().tx_api,
            TasSocketsCostModel().rx_api + TasSocketsCostModel().tx_api);
  // Fast-path packet costs identical: only the API layer differs.
  EXPECT_EQ(TasLowLevelCostModel().rx_tcp, TasSocketsCostModel().rx_tcp);
}

TEST(CostModelTest, StackOrderingHolds) {
  // Per-request cost: Linux >> mTCP > IX > TAS.
  EXPECT_GT(LinuxCostModel().RequestCycles(), MtcpCostModel().RequestCycles());
  EXPECT_GT(MtcpCostModel().RequestCycles(), IxCostModel().RequestCycles());
  EXPECT_GT(IxCostModel().RequestCycles(), TasLowLevelCostModel().RequestCycles());
}

TEST(CacheModelTest, NoPenaltyWhenStateFits) {
  CacheModel cache;
  cache.per_connection_state_bytes = 256;
  cache.effective_cache_bytes = 1 << 20;
  cache.state_lines_per_packet = 4;
  EXPECT_EQ(cache.ExtraCyclesPerPacket(1000), 0u);  // 256 KB < 1 MB.
}

TEST(CacheModelTest, PenaltyGrowsWithConnections) {
  const CacheModel& cache = IxCostModel().cache;
  const uint64_t at_16k = cache.ExtraCyclesPerPacket(16000);
  const uint64_t at_64k = cache.ExtraCyclesPerPacket(64000);
  const uint64_t at_96k = cache.ExtraCyclesPerPacket(96000);
  EXPECT_LT(at_16k, at_64k);
  EXPECT_LT(at_64k, at_96k);
  // IX's Fig 4 cliff: extra cycles at 64K are a large fraction of its base
  // per-request cost.
  EXPECT_GT(at_64k * 2, IxCostModel().RequestCycles());
}

TEST(CacheModelTest, TasStaysFlatWherePeersDegrade) {
  const uint64_t tas = TasSocketsCostModel().cache.ExtraCyclesPerPacket(64000);
  const uint64_t ix = IxCostModel().cache.ExtraCyclesPerPacket(64000);
  const uint64_t linux = LinuxCostModel().cache.ExtraCyclesPerPacket(64000);
  EXPECT_LT(tas * 10, ix);
  EXPECT_LT(tas * 10, linux);
}

TEST(CostModelTest, MinimalModelIsTiny) {
  EXPECT_LT(MinimalCostModel().RequestCycles(), 200u);
  EXPECT_EQ(MinimalCostModel().cache.ExtraCyclesPerPacket(1000000), 0u);
}

}  // namespace
}  // namespace tas
