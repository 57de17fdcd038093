// Fig 7: throughput penalty under induced packet loss (0.1% - 5%) for 100
// bulk flows over a single 10G path: Linux (full SACK reassembly), TAS
// (single out-of-order interval), and TAS with simple go-back-N recovery.
//
// Shape to reproduce: TAS's penalty is small (<2% up to 1% loss, ~13% at 5%)
// but about 2x Linux's; disabling the out-of-order interval (go-back-N)
// roughly triples TAS's penalty.
#include "src/app/bulk.h"

#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

double RunPoint(StackKind kind, double loss_rate, bool go_back_n) {
  HostSpec receiver = ServerSpec(kind, 6, 4, 128 * 1024);
  HostSpec sender = ServerSpec(kind, 6, 4, 128 * 1024);
  if (go_back_n) {
    receiver.tas.ooo_mode = OooMode::kGoBackN;
    sender.tas.ooo_mode = OooMode::kGoBackN;
  }
  LinkConfig link = ClientLink();
  link.ecn_threshold_pkts = 65;
  if (loss_rate > 0) {
    link.faults.Add(BernoulliLoss(loss_rate));
  }
  auto exp = Experiment::PointToPoint(receiver, sender, link);

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 100;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();

  const TimeNs warmup = Ms(30);
  const TimeNs measure = ScalePick(50, 500) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  rx.BeginMeasurement();
  exp->sim().RunUntil(warmup + measure);
  return rx.ThroughputBps();
}

void Run() {
  PrintHeader("Fig 7: throughput penalty vs induced packet loss rate",
              "TAS paper Figure 7 (100 flows, one 10G link)");
  const double rates[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.05};

  const double linux_base = RunPoint(StackKind::kLinux, 0, false);
  const double tas_base = RunPoint(StackKind::kTas, 0, false);
  const double gbn_base = RunPoint(StackKind::kTas, 0, true);

  TablePrinter table({"Loss rate", "Linux penalty %", "TAS penalty %",
                      "TAS go-back-N penalty %"});
  for (double rate : rates) {
    const double linux = RunPoint(StackKind::kLinux, rate, false);
    const double tas = RunPoint(StackKind::kTas, rate, false);
    const double gbn = RunPoint(StackKind::kTas, rate, true);
    table.AddRow(Fmt(rate * 100, 1) + "%", Fmt((1 - linux / linux_base) * 100, 1),
                 Fmt((1 - tas / tas_base) * 100, 1), Fmt((1 - gbn / gbn_base) * 100, 1));
  }
  table.Print();
  std::cout << "\nPaper: TAS <= 1.5% penalty up to 1% loss, ~13% at 5% loss (~2x Linux);\n"
               "without out-of-order processing the penalty grows ~3x.\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
