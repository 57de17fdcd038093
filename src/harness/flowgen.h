// Flow-level workload generation for the congestion-control experiments
// (paper Figs 11 and 12, replacing the authors' ns-3 simulations): Poisson
// flow arrivals with Pareto-distributed sizes at a target utilization, each
// flow a real TCP connection that opens, transfers, and closes, with flow
// completion time recorded at the sender.
#ifndef SRC_HARNESS_FLOWGEN_H_
#define SRC_HARNESS_FLOWGEN_H_

#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace tas {

struct FlowGenConfig {
  // Destination pool: a flow picks uniformly among these.
  std::vector<std::pair<IpAddr, uint16_t>> destinations;
  // Mean flow interarrival (Poisson). Compute from target load:
  //   interarrival = mean_flow_bytes * 8 / (link_bps * load).
  TimeNs mean_interarrival = Us(100);
  // Pareto flow sizes in bytes.
  double pareto_min_bytes = 1448;
  double pareto_max_bytes = 2e6;
  double pareto_alpha = 1.05;
  uint64_t rng_seed = 99;
};

// Drives flows out of one host. Sender-side FCT: Connect() to final byte
// acknowledged.
class FlowSource : public AppHandler {
 public:
  FlowSource(Simulator* sim, Stack* stack, const FlowGenConfig& config);

  void Start();
  // Additionally accept and drain incoming flows on `port` (all-to-all
  // traffic patterns where every host is both source and sink).
  void AlsoSink(uint16_t port);
  void BeginMeasurement();

  uint64_t flows_completed() const { return completed_; }
  uint64_t flows_started() const { return started_; }
  // Every flow's FCT, counted and summed; only the short/long recorders keep
  // the samples themselves.
  const RunningStats& fct_ms_all() const { return fct_all_; }
  const LatencyRecorder& fct_ms_short() const { return fct_short_; }  // <= 50 pkts
  const LatencyRecorder& fct_ms_long() const { return fct_long_; }    // > 50 pkts

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnClosed(ConnId conn) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnData(ConnId conn, size_t bytes) override;  // Sink side.

 private:
  struct FlowRec {
    size_t size = 0;
    size_t queued = 0;  // Bytes handed to the stack.
    size_t acked = 0;
    TimeNs started_at = 0;
  };

  void ArrivalTick();
  void StartFlow();
  void PumpFlow(ConnId conn, FlowRec& rec);

  Simulator* sim_;
  Stack* stack_;
  FlowGenConfig config_;
  Rng rng_;
  BoundedPareto sizes_;
  std::unordered_map<ConnId, FlowRec> flows_;
  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  bool measuring_ = false;
  RunningStats fct_all_;
  LatencyRecorder fct_short_;
  LatencyRecorder fct_long_;
};

// Accepts flows and drains them; closes when the peer closes.
class FlowSink : public AppHandler {
 public:
  FlowSink(Simulator* sim, Stack* stack, uint16_t port);

  void Start();
  uint64_t bytes_received() const { return bytes_; }

  // AppHandler:
  void OnData(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;

 private:
  Simulator* sim_;
  Stack* stack_;
  uint16_t port_;
  std::vector<uint8_t> scratch_;
  uint64_t bytes_ = 0;
};

}  // namespace tas

#endif  // SRC_HARNESS_FLOWGEN_H_
