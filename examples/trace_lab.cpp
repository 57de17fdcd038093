// Trace laboratory: the unified observability layer (src/trace) pointed at a
// lossy bulk transfer. Four TAS flows push data through a 10G link with 1%
// induced loss while the tracer records, on both hosts:
//   * per-flow protocol events (handshake, data/ACK, dupacks, retransmits),
//   * CPU busy spans for every fast-path core + the slow path,
//   * time series (per-flow rate, bytes in flight, buffer occupancy,
//     per-core utilization) swept every 100 us,
//   * the always-on metric registry (TAS, NIC, simulator counters).
//
// The run dumps trace_lab.h0.* / trace_lab.h1.* bundles: three JSONL files
// plus a Chrome trace-event JSON — open trace_lab.h1.perfetto.json in
// https://ui.perfetto.dev to see retransmit instants sitting on the flow
// tracks right where the core spans stall.
//
// Run: ./build/examples/trace_lab
#include <cstdio>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"

int main() {
  using namespace tas;

  TasConfig tas_config;
  tas_config.trace.flow_events = true;
  tas_config.trace.cpu_spans = true;
  tas_config.trace.sample_period = Us(100);
  tas_config.trace.sample_flows = true;

  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.app_cores = 2;
  spec.tas = tas_config;
  spec.tas_overridden = true;

  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 128;
  link.faults.Add(BernoulliLoss(0.01));  // The lossy part: 1% uniform loss, both directions.
  link.rng_seed = 7;                     // Byte-identical reruns.
  auto exp = Experiment::PointToPoint(spec, spec, link);

  BulkReceiver rx(&exp->sim(), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 4;
  BulkSender tx(&exp->sim(), exp->host(1).stack(), sc);
  tx.Start();

  exp->sim().RunUntil(Ms(50));

  // Host 1 is the sender: its trace shows data tx, dupacks and retransmits.
  for (int h = 0; h < 2; ++h) {
    TasService* tas = exp->host(static_cast<size_t>(h)).tas();
    const Tracer& tracer = tas->tracer();
    std::printf("host %d: %llu flow events (%llu overwritten), %zu cpu spans, "
                "%zu time series, %zu sweeps\n",
                h, (unsigned long long)tracer.flow_events().recorded(),
                (unsigned long long)tracer.flow_events().overwritten(),
                tracer.spans().spans().size(), tracer.sampler().series().size(),
                (size_t)tracer.sampler().sweeps());
  }
  const TasStats& stats = exp->host(1).tas()->stats();
  std::printf("sender: %llu data pkts, %llu fast rexmits, %llu timeout rexmits\n",
              (unsigned long long)stats.fastpath_tx_packets,
              (unsigned long long)stats.fast_retransmits,
              (unsigned long long)stats.timeout_retransmits);

  const size_t written = exp->WriteTraces("trace_lab");
  std::printf("\nwrote %zu trace bundles (trace_lab.h0.*, trace_lab.h1.*):\n", written);
  std::printf("  *.metrics.jsonl      one {\"name\",\"kind\",\"value\"} object per metric\n");
  std::printf("  *.flow_events.jsonl  one typed protocol event per line\n");
  std::printf("  *.timeseries.jsonl   one {\"name\",\"points\":[[t,v],...]} per series\n");
  std::printf("  *.perfetto.json      load in https://ui.perfetto.dev\n");
  std::printf("\nSame seed => byte-identical trace files on every run.\n");
  return 0;
}
