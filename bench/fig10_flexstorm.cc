// Fig 10 + Table 8: FlexStorm real-time analytics — average tuple
// throughput (raw and per-core) and the per-stage tuple latency breakdown
// (input queueing / processing / output queueing) on Linux, mTCP, and TAS.
//
// Shape to reproduce: mTCP ~2.1x Linux raw throughput (1.8x per-core); TAS
// +8% raw over mTCP (+26% per-core); output queueing dominated by the 10ms
// batching that Linux/mTCP require, which TAS drops entirely, cutting total
// tuple latency by >50% vs mTCP.
#include "src/app/flexstorm.h"

#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

struct FlexResult {
  double mtuples = 0;
  double per_core_mtuples = 0;
  double input_us = 0;
  double processing_us = 0;
  double output_us = 0;
  double total_ms = 0;
};

FlexResult RunConfig(StackKind kind) {
  // Three nodes in a ring over one switch (the paper deploys on 3 machines).
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  const int workers = 2;
  const int app_cores = workers + 2;  // demux + workers + mux.
  for (int i = 0; i < 3; ++i) {
    specs.push_back(ServerSpec(kind, app_cores, 2, 256 * 1024));
    links.push_back(ClientLink());
  }
  auto exp = Experiment::Star(specs, links);

  FlexStormConfig config;
  config.num_workers = workers;
  config.spout_rate_tps = 1.5e6 / 3;  // Offered load above capacity per node.
  if (kind == StackKind::kTas) {
    config.mux_batch_timeout = 0;  // TAS: no batching (paper §5.4).
  } else {
    config.mux_batch_timeout = Ms(10);
    config.mux_batch_tuples = 100000;  // Effectively timeout-driven.
  }

  std::vector<std::unique_ptr<FlexStormNode>> nodes;
  for (int i = 0; i < 3; ++i) {
    std::vector<Core*> cores = exp->host(i).AppCorePtrs();
    config.rng_seed = 7 + i;
    nodes.push_back(std::make_unique<FlexStormNode>(
        &exp->sim(), exp->host(i).stack(), cores, config));
  }
  for (int i = 0; i < 3; ++i) {
    nodes[i]->Start(exp->host((i + 1) % 3).ip());
  }

  const TimeNs warmup = Ms(50);
  const TimeNs measure = ScalePick(100, 1000) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  for (auto& node : nodes) {
    node->BeginMeasurement();
  }
  exp->sim().RunUntil(warmup + measure);

  FlexResult result;
  RunningStats input;
  RunningStats proc;
  RunningStats output;
  LatencyRecorder total;
  for (auto& node : nodes) {
    result.mtuples += node->Throughput() / 1e6;
    input.Merge(node->input_wait_us());
    proc.Merge(node->processing_us());
    output.Merge(node->output_wait_us());
  }
  // Per-core: total cores across the deployment (app cores + stack cores).
  int total_cores = 3 * app_cores;
  if (kind == StackKind::kMtcp) {
    total_cores += 3;  // Dedicated mTCP stack cores.
  } else if (kind == StackKind::kTas) {
    total_cores += 3 * 2;  // Fast-path cores.
  }
  result.per_core_mtuples = result.mtuples / total_cores;
  result.input_us = input.mean();
  result.processing_us = proc.mean();
  result.output_us = output.mean();
  result.total_ms =
      (result.input_us + result.processing_us + result.output_us) / 1000.0;
  return result;
}

void Run() {
  PrintHeader("Fig 10 + Table 8: FlexStorm throughput and tuple latency",
              "TAS paper Figure 10 and Table 8 (3 nodes)");
  const StackKind kinds[] = {StackKind::kLinux, StackKind::kMtcp, StackKind::kTas};
  TablePrinter table({"Stack", "mtuples/s", "per-core ktuples/s", "Input", "Processing",
                      "Output", "Total"});
  for (StackKind kind : kinds) {
    const FlexResult r = RunConfig(kind);
    auto us = [](double v) { return Fmt(v, 2) + " us"; };
    auto stage = [&](double v) {
      return v >= 1000 ? Fmt(v / 1000, 2) + " ms" : us(v);
    };
    table.AddRow(StackKindName(kind), Fmt(r.mtuples, 2), Fmt(r.per_core_mtuples * 1000, 1),
                 stage(r.input_us), us(r.processing_us), stage(r.output_us),
                 stage(r.input_us + r.processing_us + r.output_us));
  }
  table.Print();
  std::cout << "\nPaper Table 8: Linux 6.96us/0.37us/20ms; mTCP 4ms/0.33us/14ms;\n"
               "TAS 7.47us/0.36us/8ms (input/processing/output). TAS needs no batching,\n"
               "so our TAS output queueing is microseconds (see EXPERIMENTS.md note).\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
