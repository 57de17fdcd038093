// FlexStorm: the real-time analytics pipeline of paper §5.4.
//
// Each node runs a demultiplexer thread that fans incoming tuples out to
// worker threads, and a multiplexer thread that batches outgoing tuples
// before emission (up to 10 ms in the Linux/mTCP configurations — the source
// of the paper's multi-millisecond output queueing; TAS needs no batching).
// Tuples hop node -> node -> node over TCP; after three hops the
// tuple completes and its end-to-end latency is recorded. Per-stage times
// (input queueing, processing, output queueing) reproduce Table 8.
#ifndef SRC_APP_FLEXSTORM_H_
#define SRC_APP_FLEXSTORM_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/baseline/stack_iface.h"
#include "src/cpu/core.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace tas {

struct FlexStormConfig {
  size_t num_workers = 2;
  // Output batching: flush when this many tuples accumulated or the timeout
  // expires. timeout=0 disables batching (the TAS configuration).
  size_t mux_batch_tuples = 10000;
  TimeNs mux_batch_timeout = Ms(10);
  // Spout: offered load generated at this node (tuples/sec); 0 = no spout.
  double spout_rate_tps = 0;
  uint16_t port = 8800;
  uint64_t rng_seed = 7;
};

class FlexStormNode : public AppHandler {
 public:
  // `cores`: [0] demux, [1..num_workers] workers, [last] mux. The same cores
  // must back the Stack's app-core set so charges serialize consistently.
  FlexStormNode(Simulator* sim, Stack* stack, std::vector<Core*> cores,
                const FlexStormConfig& config);

  // `next_ip` is the downstream node (0 = this node is never a forwarder).
  void Start(IpAddr next_ip);

  uint64_t completed() const { return completed_; }
  double Throughput() const;
  void BeginMeasurement();

  const RunningStats& input_wait_us() const { return input_wait_us_; }
  const RunningStats& processing_us() const { return processing_us_; }
  const RunningStats& output_wait_us() const { return output_wait_us_; }
  const LatencyRecorder& tuple_latency_us() const { return tuple_latency_us_; }

  // AppHandler:
  void OnConnected(ConnId conn, bool success) override;
  void OnAccepted(ConnId conn, uint16_t port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

 private:
  struct Tuple {
    TimeNs created = 0;
    int hops = 0;
    TimeNs worker_done = 0;  // For output-wait accounting.
  };

  void SpoutTick();
  void HandleTuple(Tuple tuple, TimeNs arrival);
  void EnqueueMux(Tuple tuple);
  void FlushMux();
  void EmitTuple(const Tuple& tuple);
  void TrySendOut();
  void CompleteTuple(const Tuple& tuple);

  Simulator* sim_;
  Stack* stack_;
  FlexStormConfig config_;
  Core* demux_core_;
  std::vector<Core*> worker_cores_;
  Core* mux_core_;
  Rng rng_;

  ConnId out_conn_ = kInvalidConn;
  bool out_connected_ = false;
  std::unordered_map<ConnId, std::vector<uint8_t>> rx_bufs_;
  std::deque<Tuple> mux_queue_;
  std::deque<std::vector<uint8_t>> out_queue_;  // Serialized, awaiting TX space.
  EventHandle mux_timer_;
  size_t next_worker_ = 0;

  uint64_t completed_ = 0;
  bool measuring_ = false;
  TimeNs measure_start_ = 0;
  uint64_t completed_at_start_ = 0;
  RunningStats input_wait_us_;
  RunningStats processing_us_;
  RunningStats output_wait_us_;
  LatencyRecorder tuple_latency_us_;
};

}  // namespace tas

#endif  // SRC_APP_FLEXSTORM_H_
