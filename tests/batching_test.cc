// Tests for batched fast-path processing (TasConfig::rx_batch_size /
// app_event_batch): same-seed same-batch runs must be byte-identical,
// rx_batch_size=1 must behave packet-serially, and batching must change
// only timing — not workload outcomes — while the new occupancy/doorbell
// counters actually move.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/tas/fast_path.h"
#include "src/trace/tracer.h"

namespace tas {
namespace {

struct BatchRun {
  std::string server_flow_events;
  std::string server_metrics;
  std::string client_flow_events;
  uint64_t ops = 0;
  uint64_t retransmits = 0;
  uint64_t rx_drops = 0;
  uint64_t batches = 0;
  uint64_t batch_items = 0;
  std::array<uint64_t, FastPathCore::kOccBuckets> occupancy{};
  double doorbells_coalesced = 0;
};

// Closed-loop echo between two TAS hosts on a clean (loss-free) link; every
// source of randomness is seeded, so a given (seed, batch size) pair is a
// single deterministic trajectory.
BatchRun RunEcho(int rx_batch, int app_event_batch) {
  TasConfig tas_config;
  tas_config.trace.flow_events = true;
  tas_config.rx_batch_size = rx_batch;
  tas_config.app_event_batch = app_event_batch;

  HostSpec spec;
  // Low-level API pricing keeps the app faster than the fast path, so it
  // drains to idle between batches — the state in which deferred doorbells
  // actually coalesce (a sockets-priced app is permanently mid-dispatch).
  spec.stack = StackKind::kTasLowLevel;
  // One app core = one context: all connections share a doorbell, so batched
  // deliveries exercise the coalescing path (with several contexts the echo
  // round-robin splits each batch one event per context and nothing latches).
  spec.app_cores = 1;
  spec.tas = tas_config;
  spec.tas_overridden = true;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  link.rng_seed = 23;
  auto exp = Experiment::PointToPoint(spec, spec, link);

  EchoServerConfig sc;
  EchoServer server(&exp->sim(), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 8;
  cc.pipeline_depth = 8;
  // Every pipeline starts at once, after all eight handshakes: the
  // bursts that fill multi-item batches then do not depend on how far apart
  // the slow path's connection set-ups spaced the handshakes.
  cc.first_request_at = Ms(1);
  EchoClient client(&exp->sim(), exp->host(1).stack(), cc);
  client.Start();
  exp->sim().RunUntil(Ms(20));

  BatchRun out;
  out.ops = client.completed();
  TasService* tas = exp->host(0).tas();
  const TasStats& stats = tas->stats();
  out.retransmits =
      stats.fast_retransmits + stats.timeout_retransmits + stats.handshake_retransmits;
  out.rx_drops = stats.rx_buffer_drops;
  for (int i = 0; i < tas->max_cores(); ++i) {
    out.batches += tas->fastpath(i)->batches();
    out.batch_items += tas->fastpath(i)->batch_items();
    for (size_t b = 0; b < FastPathCore::kOccBuckets; ++b) {
      out.occupancy[b] += tas->fastpath(i)->rx_occupancy()[b];
    }
  }
  // Both hosts: the side whose app outpaces its fast path (here the client,
  // which only sinks responses) is where doorbell coalescing shows up.
  for (int host = 0; host < 2; ++host) {
    for (const MetricSample& s :
         exp->host(host).tas()->tracer().metrics().Snapshot()) {
      if (s.name == "tas.contexts.doorbells_coalesced") {
        out.doorbells_coalesced += s.value;
      }
    }
  }
  std::ostringstream sf, sm, cf;
  tas->tracer().WriteFlowEventsJsonl(sf);
  tas->tracer().WriteMetricsJsonl(sm);
  exp->host(1).tas()->tracer().WriteFlowEventsJsonl(cf);
  out.server_flow_events = sf.str();
  out.server_metrics = sm.str();
  out.client_flow_events = cf.str();
  return out;
}

TEST(BatchingTest, SameSeedSameBatchSizeIsByteIdentical) {
  const BatchRun a = RunEcho(16, 16);
  const BatchRun b = RunEcho(16, 16);
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.server_flow_events, b.server_flow_events);
  EXPECT_EQ(a.server_metrics, b.server_metrics);
  EXPECT_EQ(a.client_flow_events, b.client_flow_events);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batch_items, b.batch_items);
}

TEST(BatchingTest, BatchSizeOneIsPacketSerial) {
  const BatchRun run = RunEcho(1, 1);
  EXPECT_GT(run.ops, 0u);
  EXPECT_EQ(run.retransmits, 0u);
  ASSERT_GT(run.batches, 0u);
  // Serial mode: every dispatch handles exactly one item, so the occupancy
  // histogram only holds 0-RX (pure TX work) and 1-RX batches.
  EXPECT_EQ(run.batch_items, run.batches);
  for (size_t b = 2; b < FastPathCore::kOccBuckets; ++b) {
    EXPECT_EQ(run.occupancy[b], 0u) << "bucket " << b;
  }
  // And byte-identical on rerun, like any fixed batch size.
  const BatchRun again = RunEcho(1, 1);
  EXPECT_EQ(run.server_flow_events, again.server_flow_events);
  EXPECT_EQ(run.ops, again.ops);
}

TEST(BatchingTest, BatchingChangesTimingNotOutcomes) {
  const BatchRun serial = RunEcho(1, 1);
  const BatchRun batched = RunEcho(16, 16);

  // Workload invariants: a clean link stays retransmit- and drop-free at
  // every batch size, and closed-loop progress is comparable (batching
  // shifts latency slightly; it must not change what the workload does).
  EXPECT_EQ(serial.retransmits, 0u);
  EXPECT_EQ(batched.retransmits, 0u);
  EXPECT_EQ(serial.rx_drops, 0u);
  EXPECT_EQ(batched.rx_drops, 0u);
  ASSERT_GT(serial.ops, 0u);
  ASSERT_GT(batched.ops, 0u);
  const double ratio =
      static_cast<double>(batched.ops) / static_cast<double>(serial.ops);
  EXPECT_GT(ratio, 0.75);
  EXPECT_LT(ratio, 1.35);

  // The batch machinery must actually engage: multi-item batches occur
  // (pipeline depth 8 x 8 connections keeps the fast path busy), dispatches
  // drop, and app doorbells get coalesced.
  EXPECT_GT(batched.batch_items, batched.batches);
  EXPECT_LT(batched.batches, serial.batches);
  uint64_t multi = 0;
  for (size_t b = 2; b < FastPathCore::kOccBuckets; ++b) {
    multi += batched.occupancy[b];
  }
  EXPECT_GT(multi, 0u);
  EXPECT_GT(batched.doorbells_coalesced, 0.0);
}

}  // namespace
}  // namespace tas
