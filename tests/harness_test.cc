// Tests for the experiment harness: cluster builders, independence of
// experiments alive at once, the flow generator used by the
// congestion-control figures, cycle accounting helpers, and the table
// printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "src/app/rpc_echo.h"
#include "src/harness/experiment.h"
#include "src/harness/flowgen.h"
#include "src/harness/table.h"

namespace tas {
namespace {

TEST(ExperimentTest, StarBuildsRequestedHosts) {
  std::vector<HostSpec> specs(3);
  specs[0].stack = StackKind::kTas;
  specs[1].stack = StackKind::kLinux;
  specs[2].stack = StackKind::kIx;
  auto exp = Experiment::Star(specs, {LinkConfig{}});
  ASSERT_EQ(exp->num_hosts(), 3u);
  EXPECT_NE(exp->host(0).tas(), nullptr);
  EXPECT_EQ(exp->host(0).engine(), nullptr);
  EXPECT_EQ(exp->host(1).tas(), nullptr);
  EXPECT_NE(exp->host(1).engine(), nullptr);
  EXPECT_NE(exp->host(0).ip(), exp->host(1).ip());
}

TEST(ExperimentTest, CustomTopologyAssignsSpecsRoundRobin) {
  HostSpec spec;
  spec.stack = StackKind::kIx;
  auto exp = Experiment::Custom(
      [](Simulator* sim) {
        FatTreeConfig config;
        config.k = 2;
        config.hosts_per_edge = 2;
        return MakeFatTree(sim, config);
      },
      {spec});
  EXPECT_EQ(exp->num_hosts(), 4u);  // k=2: 2 pods x 1 edge x 2 hosts.
  for (size_t i = 0; i < exp->num_hosts(); ++i) {
    EXPECT_NE(exp->host(i).engine(), nullptr);
  }
}

TEST(ExperimentTest, StackKindNamesAreDistinct) {
  std::set<std::string> names;
  for (StackKind kind : {StackKind::kTas, StackKind::kTasLowLevel, StackKind::kLinux,
                         StackKind::kIx, StackKind::kMtcp}) {
    names.insert(StackKindName(kind));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(ExperimentTest, TotalCyclesAggregatesAppAndStack) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});
  exp->host(0).app_core(0)->Charge(CpuModule::kApp, 1000);
  exp->host(0).tas()->fastpath_cpu(0)->Charge(CpuModule::kTcp, 500);
  EXPECT_EQ(exp->host(0).TotalCycles(CpuModule::kApp), 1000u);
  EXPECT_GE(exp->host(0).TotalCycles(CpuModule::kTcp), 500u);
  EXPECT_GE(exp->host(0).TotalCycles(), 1500u);
}

// A latency-traced TAS echo pair: host 0 serves, host 1 runs 8 pipelined
// connections. The apps are declared after the experiment, so they go first.
struct TracedEcho {
  TracedEcho() {
    HostSpec spec;
    spec.stack = StackKind::kTasLowLevel;
    spec.tas.trace.latency_stages = true;
    spec.tas_overridden = true;
    LinkConfig link;
    link.rng_seed = 23;
    exp = Experiment::PointToPoint(spec, spec, link);
    server = std::make_unique<EchoServer>(&exp->sim(), exp->host(0).stack(),
                                          EchoServerConfig{});
    server->Start();
    EchoClientConfig cc;
    cc.server_ip = exp->host(0).ip();
    cc.num_connections = 8;
    cc.pipeline_depth = 8;
    client = std::make_unique<EchoClient>(&exp->sim(), exp->host(1).stack(), cc);
    client->Start();
  }

  std::unique_ptr<Experiment> exp;
  std::unique_ptr<EchoServer> server;
  std::unique_ptr<EchoClient> client;
};

struct EchoSnapshot {
  uint64_t ops = 0;
  uint64_t completed = 0;
  std::string report;
  uint64_t allocated = 0;
  size_t outstanding = 0;
};

EchoSnapshot Snapshot(TracedEcho& rig) {
  const LatencyTracer& lt = rig.exp->host(0).tas()->tracer().latency();
  const PacketPoolStats pool = rig.exp->packet_pool().stats();
  return {rig.client->completed(), lt.completed(), lt.Report().ToJson(), pool.allocated,
          pool.outstanding};
}

// Two experiments alive at once share no packet pool and no tracer: advanced
// alternately in 1 ms slices, each matches a solo run exactly, and either
// may be destroyed first with packets still in flight.
TEST(ExperimentTest, InterleavedExperimentsMatchSoloRuns) {
  // The runs end at the first microsecond from 20 ms on at which the solo
  // run has packets in flight, so teardown always finds some.
  TimeNs end = Ms(20);
  EchoSnapshot solo;
  {
    TracedEcho rig;
    rig.exp->sim().RunUntil(end);
    while (rig.exp->packet_pool().stats().outstanding == 0 && end < Ms(21)) {
      end += Us(1);
      rig.exp->sim().RunUntil(end);
    }
    solo = Snapshot(rig);
  }
  ASSERT_GT(solo.ops, 0u);
  ASSERT_GT(solo.completed, 0u);
  ASSERT_GT(solo.outstanding, 0u);  // Packets in flight at teardown.

  for (bool a_dies_first : {true, false}) {
    auto a = std::make_unique<TracedEcho>();
    auto b = std::make_unique<TracedEcho>();
    for (TimeNs t = Ms(1); t < end + Ms(1); t += Ms(1)) {
      a->exp->sim().RunUntil(std::min(t, end));
      b->exp->sim().RunUntil(std::min(t, end));
    }
    for (TracedEcho* rig : {a.get(), b.get()}) {
      const EchoSnapshot got = Snapshot(*rig);
      EXPECT_EQ(got.ops, solo.ops);
      EXPECT_EQ(got.completed, solo.completed);
      EXPECT_EQ(got.report, solo.report);
      EXPECT_EQ(got.allocated, solo.allocated);
      EXPECT_EQ(got.outstanding, solo.outstanding);
    }
    if (a_dies_first) {
      a.reset();
    } else {
      b.reset();
    }
  }
}

TEST(FlowGenTest, FlowsCompleteAndFctsRecorded) {
  HostSpec spec;
  spec.stack = StackKind::kIx;
  spec.engine_overridden = true;
  spec.engine = IxStackConfig();
  spec.engine.costs = &MinimalCostModel();
  LinkConfig link;
  link.gbps = 10.0;
  auto exp = Experiment::PointToPoint(spec, spec, link);

  FlowSink sink(&exp->sim(), exp->host(0).stack(), 9000);
  sink.Start();
  FlowGenConfig gen;
  gen.destinations = {{exp->host(0).ip(), 9000}};
  gen.mean_interarrival = Us(500);
  gen.pareto_min_bytes = 2896;
  gen.pareto_max_bytes = 100000;
  FlowSource source(&exp->sim(), exp->host(1).stack(), gen);
  source.Start();
  source.BeginMeasurement();
  exp->sim().RunUntil(Ms(100));

  EXPECT_GT(source.flows_started(), 100u);
  // Nearly all started flows complete (a few are in flight at the horizon).
  EXPECT_GT(source.flows_completed() + 20, source.flows_started());
  EXPECT_GT(sink.bytes_received(), 100000u);
  EXPECT_GT(source.fct_ms_all().count(), 50u);
  // Every completed flow is counted once overall and once in its size class.
  EXPECT_EQ(source.fct_ms_all().count(),
            source.fct_ms_short().count() + source.fct_ms_long().count());
  // Short flows finish faster than long ones on average.
  if (source.fct_ms_short().count() > 10 && source.fct_ms_long().count() > 10) {
    EXPECT_LT(source.fct_ms_short().Mean(), source.fct_ms_long().Mean());
  }
}

TEST(FlowGenTest, SinkRoleDrainsIncomingFlows) {
  HostSpec spec;
  spec.stack = StackKind::kIx;
  spec.engine_overridden = true;
  spec.engine = IxStackConfig();
  spec.engine.costs = &MinimalCostModel();
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});

  FlowGenConfig gen;
  gen.destinations = {{exp->host(0).ip(), 9000}};
  gen.mean_interarrival = Ms(1);
  FlowSource a(&exp->sim(), exp->host(0).stack(), gen);
  a.Start();
  a.AlsoSink(9000);
  FlowGenConfig gen_b = gen;
  gen_b.destinations = {{exp->host(0).ip(), 9000}};
  gen_b.rng_seed = 123;
  FlowSource b(&exp->sim(), exp->host(1).stack(), gen_b);
  b.Start();
  b.AlsoSink(9000);
  exp->sim().RunUntil(Ms(100));
  EXPECT_GT(b.flows_completed(), 20u);  // b -> a flows drained by a's sink role.
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow("x", 1);
  table.AddRow("yyyy", 123456);
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("LongHeader"), std::string::npos);
  EXPECT_NE(text.find("123456"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TablePrinterTest, FormatsDoublesWithTwoDigits) {
  TablePrinter table({"v"});
  table.AddRow(3.14159);
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("3.14"), std::string::npos);
  EXPECT_EQ(os.str().find("3.14159"), std::string::npos);
}

TEST(ScaleTest, PickHonorsEnvironment) {
  unsetenv("TAS_SCALE");
  EXPECT_FALSE(FullScale());
  EXPECT_EQ(ScalePick(10, 100), 10u);
  setenv("TAS_SCALE", "full", 1);
  EXPECT_TRUE(FullScale());
  EXPECT_EQ(ScalePick(10, 100), 100u);
  unsetenv("TAS_SCALE");
}

}  // namespace
}  // namespace tas
