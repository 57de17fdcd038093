// Tests for per-packet latency anatomy (src/trace/latency): ring-overflow
// semantics, stale-stamp rejection, the partition invariant under batching,
// passivity (stamping must not perturb the simulation), JSON round-trip,
// and the CI regression comparator.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/trace/latency.h"
#include "src/trace/tracer.h"

namespace tas {
namespace {

TEST(LatencyTracerTest, RingOverflowDropsOldestWithoutCorruptingLive) {
  LatencyTracer tracer(4);
  // Fill the ring with four in-flight records.
  uint64_t ids[5];
  for (int i = 0; i < 4; ++i) {
    ids[i] = tracer.Begin(0);
    tracer.Stamp(ids[i], LatencyStage::kFpTx, 100);
  }
  EXPECT_EQ(tracer.overwritten(), 0u);

  // A fifth Begin wraps onto the first record's slot: the oldest record is
  // dropped and counted, the other three stay live.
  ids[4] = tracer.Begin(50);
  EXPECT_EQ(tracer.overwritten(), 1u);

  // Late stamps for the dropped record fail the id check, not corrupt the
  // new occupant.
  tracer.Stamp(ids[0], LatencyStage::kLinkWire, 200);
  tracer.Finish(ids[0], LatencyStage::kFpRx, 300);
  EXPECT_EQ(tracer.stale(), 2u);
  EXPECT_EQ(tracer.completed(), 0u);

  // Every live record (including the overwriting one) finishes cleanly with
  // intact accounting.
  for (int i = 1; i < 5; ++i) {
    tracer.Finish(ids[i], LatencyStage::kFpRx, 400);
  }
  EXPECT_EQ(tracer.completed(), 4u);
  EXPECT_EQ(tracer.partition_mismatches(), 0u);
  // The overwriting record started at t=50 with no earlier stamps: its whole
  // 350 ns lifetime lands in fp_rx, untouched by the dead record's history.
  EXPECT_EQ(tracer.stage_stats(LatencyStage::kFpRx).max(), 350.0);
}

TEST(LatencyTracerTest, AbandonRetiresWithoutFolding) {
  LatencyTracer tracer(8);
  const uint64_t id = tracer.Begin(0);
  tracer.Stamp(id, LatencyStage::kFpTx, 10);
  tracer.Abandon(id);
  EXPECT_EQ(tracer.abandoned(), 1u);
  EXPECT_EQ(tracer.completed(), 0u);
  EXPECT_EQ(tracer.stage_stats(LatencyStage::kFpTx).count(), 0u);
  // Abandoning twice (drop observed at two sites) is not an error.
  tracer.Abandon(id);
  EXPECT_EQ(tracer.abandoned(), 1u);
  // And id 0 ("untracked") is always ignored.
  tracer.Stamp(0, LatencyStage::kFpTx, 20);
  tracer.Finish(0, LatencyStage::kFpRx, 30);
  tracer.Abandon(0);
  EXPECT_EQ(tracer.stale(), 0u);
}

TEST(LatencyTracerTest, RingAllocatedByFirstBeginAndKeptByClear) {
  LatencyTracer tracer(8);
  EXPECT_EQ(tracer.ring_slots(), 0u);
  // Stamps and drops for ids this tracer never opened touch no storage.
  tracer.Stamp(5, LatencyStage::kFpTx, 10);
  tracer.Abandon(5);
  EXPECT_EQ(tracer.stale(), 1u);
  EXPECT_EQ(tracer.abandoned(), 0u);
  EXPECT_EQ(tracer.ring_slots(), 0u);

  const uint64_t before_clear = tracer.Begin(0);
  tracer.Stamp(before_clear, LatencyStage::kFpTx, 10);
  EXPECT_EQ(tracer.ring_slots(), 8u);
  tracer.Clear();
  EXPECT_EQ(tracer.ring_slots(), 8u);
  EXPECT_EQ(tracer.stale(), 0u);

  // The cleared ring holds no live record: a fresh one starts clean.
  const uint64_t id = tracer.Begin(100);
  tracer.Stamp(id, LatencyStage::kFpTx, 130);
  tracer.Finish(id, LatencyStage::kFpRx, 150);
  EXPECT_EQ(tracer.completed(), 1u);
  EXPECT_EQ(tracer.overwritten(), 0u);
  EXPECT_EQ(tracer.partition_mismatches(), 0u);
  EXPECT_EQ(tracer.stage_stats(LatencyStage::kFpTx).max(), 30.0);
  EXPECT_EQ(tracer.e2e_stats().max(), 50.0);
}

struct LatencyRun {
  uint64_t ops = 0;
  uint64_t completed = 0;
  uint64_t partition_mismatches = 0;
  uint64_t overwritten = 0;
  LatencyReport report;
  std::string server_flow_events;  // Byte-identity probe.
  // Ring storage of the experiment's tracer, whether both hosts see that one
  // tracer, and which hosts report it.
  size_t ring_slots = 0;
  bool one_tracer = false;
  bool server_owns = false;
  bool client_owns = false;
};

// The batching_test echo workload (two TAS-LowLevel hosts, clean seeded
// link) with per-packet stage stamping toggled per run. Host 0 is built
// first, so it enables, sizes and reports the experiment's tracer. `star`
// routes the pair through a switch (exercising the switch_queue stage and a
// second link hop) instead of a direct point-to-point link.
LatencyRun RunEcho(int rx_batch, bool latency, bool star = false) {
  TasConfig tas_config;
  tas_config.trace.flow_events = true;
  tas_config.trace.latency_stages = latency;
  tas_config.rx_batch_size = rx_batch;
  tas_config.app_event_batch = rx_batch;

  HostSpec spec;
  spec.stack = StackKind::kTasLowLevel;
  spec.app_cores = 1;
  spec.tas = tas_config;
  spec.tas_overridden = true;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  link.rng_seed = 23;
  auto exp = star ? Experiment::Star({spec, spec}, {link, link})
                  : Experiment::PointToPoint(spec, spec, link);

  EchoServerConfig sc;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 8;
  cc.pipeline_depth = 8;
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(20));

  LatencyRun out;
  out.ops = client.completed();
  const LatencyTracer& lt = exp->host(0).tas()->tracer().latency();
  out.completed = lt.completed();
  out.partition_mismatches = lt.partition_mismatches();
  out.overwritten = lt.overwritten();
  out.report = lt.Report();
  out.ring_slots = lt.ring_slots();
  out.one_tracer = &lt == &exp->host(1).tas()->tracer().latency();
  out.server_owns = exp->host(0).tas()->tracer().owns_latency();
  out.client_owns = exp->host(1).tas()->tracer().owns_latency();
  std::ostringstream sf;
  exp->host(0).tas()->tracer().WriteFlowEventsJsonl(sf);
  out.server_flow_events = sf.str();
  return out;
}

TEST(LatencyAnatomyTest, PartitionInvariantHoldsAcrossBatchSizes) {
  const LatencyRun serial = RunEcho(1, true);
  const LatencyRun batched = RunEcho(16, true);

  // Stamps must cover every packet's lifetime with no gaps or double
  // charges, at batch size 1 and with multi-packet bursts alike.
  ASSERT_GT(serial.completed, 500u);
  ASSERT_GT(batched.completed, 500u);
  EXPECT_EQ(serial.partition_mismatches, 0u);
  EXPECT_EQ(batched.partition_mismatches, 0u);
  EXPECT_EQ(serial.overwritten, 0u);
  EXPECT_EQ(batched.overwritten, 0u);

  // Batching legitimately moves early burst members to the batch horizon, so
  // stage sums differ across batch sizes — but the overall journey time must
  // stay in the same regime.
  const LatencyStageSummary* e2e_serial = serial.report.Find("e2e");
  const LatencyStageSummary* e2e_batched = batched.report.Find("e2e");
  ASSERT_NE(e2e_serial, nullptr);
  ASSERT_NE(e2e_batched, nullptr);
  ASSERT_GT(e2e_serial->mean_ns, 0.0);
  const double ratio = e2e_batched->mean_ns / e2e_serial->mean_ns;
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 3.0);
}

// Both hosts enable latency stamping, but the experiment holds one tracer
// and so one ring: the first host built sized it and reports it.
TEST(LatencyAnatomyTest, AnExperimentAllocatesExactlyOneLatencyRing) {
  const LatencyRun run = RunEcho(16, true);
  ASSERT_GT(run.completed, 0u);
  EXPECT_TRUE(run.one_tracer);
  EXPECT_EQ(run.ring_slots, size_t{1} << 12);
  EXPECT_TRUE(run.server_owns);
  EXPECT_FALSE(run.client_owns);
}

TEST(LatencyAnatomyTest, StageSumsAreConsistentWithEndToEnd) {
  const LatencyRun run = RunEcho(16, true, /*star=*/true);
  ASSERT_GT(run.completed, 0u);
  EXPECT_EQ(run.partition_mismatches, 0u);

  // Per record, stage intervals partition [Begin, Finish) exactly, so the
  // stage totals (mean x count) must sum to the e2e total.
  const LatencyStageSummary* e2e = run.report.Find("e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count, run.completed);
  double stage_total = 0;
  double queue_total = 0;
  double service_total = 0;
  for (int i = 0; i < kNumLatencyStages; ++i) {
    const LatencyStage stage = static_cast<LatencyStage>(i);
    const LatencyStageSummary* s = run.report.Find(LatencyStageName(stage));
    ASSERT_NE(s, nullptr) << LatencyStageName(stage);
    stage_total += s->mean_ns * static_cast<double>(s->count);
    (LatencyStageIsQueue(stage) ? queue_total : service_total) +=
        s->mean_ns * static_cast<double>(s->count);
  }
  const double e2e_total = e2e->mean_ns * static_cast<double>(e2e->count);
  EXPECT_NEAR(stage_total, e2e_total, e2e_total * 1e-9 + 1.0);

  // The synthetic class rows decompose the same total.
  const LatencyStageSummary* queue = run.report.Find("queue_wait");
  const LatencyStageSummary* service = run.report.Find("service");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(service, nullptr);
  EXPECT_NEAR(queue->mean_ns * static_cast<double>(queue->count), queue_total,
              e2e_total * 1e-9 + 1.0);
  EXPECT_NEAR(service->mean_ns * static_cast<double>(service->count), service_total,
              e2e_total * 1e-9 + 1.0);

  // The echo path actually exercises every stage.
  for (int i = 0; i < kNumLatencyStages; ++i) {
    const LatencyStageSummary* s =
        run.report.Find(LatencyStageName(static_cast<LatencyStage>(i)));
    EXPECT_GT(s->count, 0u) << s->name;
  }
}

TEST(LatencyAnatomyTest, StampingIsPassiveAndOffRunsAreByteIdentical) {
  // Tracing off: reruns are byte-identical (the pre-PR determinism bar).
  const LatencyRun off_a = RunEcho(16, false);
  const LatencyRun off_b = RunEcho(16, false);
  EXPECT_EQ(off_a.server_flow_events, off_b.server_flow_events);
  EXPECT_EQ(off_a.ops, off_b.ops);
  EXPECT_EQ(off_a.completed, 0u);  // Tracing off: nothing recorded.

  // Tracing on observes the run without perturbing it: the simulated
  // trajectory (flow events, workload progress) is byte-identical to the
  // tracing-off run.
  const LatencyRun on = RunEcho(16, true);
  EXPECT_EQ(on.server_flow_events, off_a.server_flow_events);
  EXPECT_EQ(on.ops, off_a.ops);
  EXPECT_GT(on.completed, 0u);
}

}  // namespace
}  // namespace tas
