// Fig 13: fairness under incast — four sender machines bulk-transfer to one
// receiver at line rate; the receiver records per-connection bytes every
// 100ms. Median and 99th-percentile per-connection throughput versus the
// fair share, Linux (window DCTCP) vs TAS (rate-based DCTCP).
//
// Shape to reproduce: TAS's median sits at the fair share with a tight tail
// (paper: tail within 1.6x-2.8x of median); Linux fluctuates widely and
// starves some flows as connection counts grow.
#include "src/app/bulk.h"

#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

struct IncastResult {
  double median_mb_per_100ms = 0;
  double p1_mb = 0;   // 1st percentile: starvation indicator.
  double p99_mb = 0;
};

IncastResult RunPoint(StackKind kind, size_t total_connections) {
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  LinkConfig receiver_link = ClientLink();
  receiver_link.ecn_threshold_pkts = 65;
  LinkConfig sender_link = ClientLink();
  sender_link.ecn_threshold_pkts = 65;

  specs.push_back(ServerSpec(kind, 2, 2, 32 * 1024));
  links.push_back(receiver_link);
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ServerSpec(kind, 2, 2, 32 * 1024));
    links.push_back(sender_link);
  }
  auto exp = Experiment::Star(specs, links);

  BulkReceiverConfig rc;
  rc.sample_interval = Ms(100);
  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), rc);
  rx.Start();
  std::vector<std::unique_ptr<BulkSender>> senders;
  for (int i = 0; i < 4; ++i) {
    BulkSenderConfig sc;
    sc.server_ip = exp->host(0).ip();
    sc.num_flows = total_connections / 4;
    sc.chunk_bytes = 8 * 1024;
    senders.push_back(
        std::make_unique<BulkSender>(&exp->sim(), exp->host(1 + i).stack(), sc));
    senders.back()->Start();
  }

  const TimeNs warmup = Ms(200);
  const TimeNs measure = ScalePick(600, 4000) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  rx.BeginMeasurement();
  exp->sim().RunUntil(warmup + measure);

  LatencyRecorder samples;
  for (uint64_t bytes : rx.window_samples()) {
    samples.Add(static_cast<double>(bytes) / 1e6);  // MB per 100ms window.
  }
  IncastResult result;
  result.median_mb_per_100ms = samples.Median();
  result.p1_mb = samples.Percentile(1);
  result.p99_mb = samples.Percentile(99);
  return result;
}

void Run() {
  PrintHeader("Fig 13: per-connection throughput distribution under incast",
              "TAS paper Figure 13 (4 senders -> 1 receiver at 10G line rate)");
  std::vector<size_t> counts = {52, 100, 200, 500};
  if (FullScale()) {
    counts = {52, 100, 200, 500, 1000, 2000};
  }
  TablePrinter table({"# Connections", "Fair share [MB/100ms]", "Linux median",
                      "Linux p1", "TAS median", "TAS p1", "TAS p99"});
  for (size_t n : counts) {
    const double fair = 10e9 / 8 * 0.1 / static_cast<double>(n) / 1e6;
    const IncastResult linux = RunPoint(StackKind::kLinux, n);
    const IncastResult tas = RunPoint(StackKind::kTas, n);
    table.AddRow(n, Fmt(fair, 3), Fmt(linux.median_mb_per_100ms, 3), Fmt(linux.p1_mb, 3),
                 Fmt(tas.median_mb_per_100ms, 3), Fmt(tas.p1_mb, 3), Fmt(tas.p99_mb, 3));
  }
  table.Print();
  std::cout << "\nPaper: TAS median ~= fair share, tail within 1.6-2.8x of median;\n"
               "Linux fluctuates widely with significant starvation (low p1).\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
