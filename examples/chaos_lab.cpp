// Chaos laboratory: a scripted fault timeline (src/fault) thrown at 16 bulk
// TAS flows on a 10G link — a link flap, a Gilbert-Elliott burst-loss window,
// a corruption window (caught by the modeled NIC checksum), and a reordering
// window — with per-10ms goodput so each impairment's dent and the recovery
// after it are visible. The run is fully deterministic: a fixed link RNG seed
// plus the schedule reproduce byte-identical stats every time.
//
// Run: ./build/examples/chaos_lab
#include <cstdio>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"
#include "src/harness/table.h"

int main() {
  using namespace tas;

  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 4;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  link.rng_seed = 42;  // Byte-identical reruns.
  auto exp = Experiment::PointToPoint(spec, spec, link);
  Link* wire = exp->host_link(0);

  // The chaos timeline.
  FaultSchedule chaos;
  chaos.LinkFlap(Ms(20), Ms(5), wire)
      .ImpairmentWindowBoth(Ms(40), Ms(60), wire, GilbertElliottLoss(0.02, 0.3, 0.9))
      .ImpairmentWindowBoth(Ms(70), Ms(85), wire, Corruption(0.02))
      .ImpairmentWindowBoth(Ms(90), Ms(100), wire, Reordering(0.05, Us(20), Us(100)));
  exp->faults().Install(chaos);

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 16;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();

  std::printf("16 bulk TAS flows on one 10G link; scripted faults:\n");
  std::printf("  20-25 ms  link down (flap)\n");
  std::printf("  40-60 ms  Gilbert-Elliott burst loss (90%% in bursts of ~4)\n");
  std::printf("  70-85 ms  2%% frame corruption (NIC checksum discards)\n");
  std::printf("  90-100 ms 5%% reordering (+20-100 us)\n\n");

  TablePrinter table({"Window [ms]", "Goodput [Gbps]", "Faults active"});
  const char* labels[] = {"-",    "-",    "flap", "-",    "burst loss",
                          "burst loss", "-",    "corruption", "corruption",
                          "reordering", "-",    "-"};
  uint64_t last_bytes = 0;
  for (int bin = 0; bin < 12; ++bin) {
    exp->sim().RunUntil(Ms(10) * (bin + 1));
    const uint64_t bytes = rx.bytes_received();
    const double gbps = static_cast<double>(bytes - last_bytes) * 8 / Ms(10);
    last_bytes = bytes;
    table.AddRow(std::to_string(bin * 10) + "-" + std::to_string(bin * 10 + 10),
                 Fmt(gbps, 2), labels[bin]);
  }
  table.Print();

  std::printf("\nFault log (%zu events applied, %zu pending):\n",
              exp->faults().log().size(), exp->faults().pending());
  for (const FaultInjector::LogEntry& entry : exp->faults().log()) {
    std::printf("  %6.1f ms  %s\n", static_cast<double>(entry.at) / Ms(1),
                entry.description.c_str());
  }

  const LinkStats& data = wire->stats(1);  // Sender -> receiver direction.
  std::printf("\nLink (data direction): %llu pkts, %llu burst-loss drops, "
              "%llu down drops, %llu corrupted, %llu reordered\n",
              (unsigned long long)data.tx_packets, (unsigned long long)data.drops_induced,
              (unsigned long long)data.drops_down, (unsigned long long)data.corrupt_marked,
              (unsigned long long)data.reordered);
  const TasStats& stats = exp->host(1).tas()->stats();
  std::printf("Sender TAS: %llu fast retransmits, %llu timeout retransmits, "
              "%llu handshake retransmits\n",
              (unsigned long long)stats.fast_retransmits,
              (unsigned long long)stats.timeout_retransmits,
              (unsigned long long)stats.handshake_retransmits);
  std::printf("Receiver NIC: %llu checksum discards; receiver TAS: %llu ooo accepted\n",
              (unsigned long long)exp->host(0).tas()->nic()->rx_checksum_drops(),
              (unsigned long long)exp->host(0).tas()->stats().ooo_accepted);
  std::printf("\nSame seed + same schedule => byte-identical stats on every run.\n");
  return 0;
}
