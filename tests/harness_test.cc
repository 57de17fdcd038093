// Tests for the experiment harness: cluster builders, the flow generator
// used by the congestion-control figures, cycle accounting helpers, and the
// table printer.
#include <gtest/gtest.h>

#include <sstream>

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
