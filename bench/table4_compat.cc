// Table 4: peer compatibility between Linux and TAS. 100 bulk-transfer flows
// from one sending machine to one receiving machine over a 10G path, for all
// four sender/receiver stack combinations; line rate everywhere means the
// two independent TCP implementations interoperate.
#include "src/app/bulk.h"

#include "bench/bench_common.h"

namespace tas {
namespace bench {
namespace {

double RunCombo(StackKind receiver_kind, StackKind sender_kind) {
  HostSpec receiver = ServerSpec(receiver_kind, 6, 4, 64 * 1024);
  HostSpec sender = ServerSpec(sender_kind, 6, 4, 64 * 1024);
  LinkConfig link = ClientLink();  // 10G, as in the paper's table.
  link.ecn_threshold_pkts = 65;    // The testbed switch marks DCTCP-style.
  auto exp = Experiment::PointToPoint(receiver, sender, link);

  BulkReceiverConfig rc;
  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), rc);
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 100;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();

  const TimeNs warmup = Ms(80);  // Rate-based DCTCP converges in ~60ms.
  const TimeNs measure = ScalePick(60, 500) * kNsPerMs;
  exp->sim().RunUntil(warmup);
  rx.BeginMeasurement();
  exp->sim().RunUntil(warmup + measure);
  return rx.ThroughputBps() / 1e9;
}

void Run() {
  PrintHeader("Table 4: Linux/TAS sender-receiver compatibility matrix",
              "TAS paper Table 4 (100 bulk flows over 10G; paper: 9.4 Gbps everywhere)");
  TablePrinter table({"Receiver \\ Sender", "Linux", "TAS"});
  const StackKind kinds[] = {StackKind::kLinux, StackKind::kTas};
  for (StackKind receiver : kinds) {
    std::vector<double> row;
    for (StackKind sender : kinds) {
      row.push_back(RunCombo(receiver, sender));
    }
    table.AddRow(StackKindName(receiver), Fmt(row[0], 2) + " Gbps", Fmt(row[1], 2) + " Gbps");
  }
  table.Print();
  std::cout << "\nGoodput below the 10G line rate reflects header overhead (~5%).\n";
}

}  // namespace
}  // namespace bench
}  // namespace tas

int main() { tas::bench::Run(); }
