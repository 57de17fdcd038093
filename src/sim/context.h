// ExperimentContext: what every device of one experiment shares — the packet
// pool, the latency and causal tracers, and the flight recorder. Packets and
// requests cross hosts, so these are per experiment, not per host; devices
// reach them through the simulator they hold (Simulator::context()), and two
// experiments in one process share nothing. The simulator owns the context
// and declares it ahead of its event storage, so packets held by pending
// event closures return to a live pool at teardown; tracing stays off until
// a host enables it.
#ifndef SRC_SIM_CONTEXT_H_
#define SRC_SIM_CONTEXT_H_

#include <cstddef>
#include <memory>

#include "src/net/packet_pool.h"
#include "src/trace/causal.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/latency.h"

namespace tas {

class ExperimentContext {
 public:
  PacketPool& pool() { return pool_; }
  // The tracers, on or off (a run that traced nothing reports empty).
  LatencyTracer& latency() { return latency_; }
  CausalTracer& causal() { return causal_; }

  // What stamp sites test first: the tracer while it is on, else null.
  LatencyTracer* latency_sink() const { return latency_sink_; }
  CausalTracer* causal_sink() const { return causal_sink_; }
  FlightRecorder* recorder() const { return recorder_.get(); }

  // Turn a stream on. The first caller sizes it and gets true (the
  // recorder: itself); later callers get false (null).
  bool EnableLatency() {
    if (latency_sink_ != nullptr) {
      return false;
    }
    latency_ = LatencyTracer();
    latency_.set_recorder(recorder());
    latency_sink_ = &latency_;
    return true;
  }
  bool EnableCausal(size_t trace_capacity) {
    if (causal_sink_ != nullptr) {
      return false;
    }
    causal_ = CausalTracer(trace_capacity);
    causal_sink_ = &causal_;
    return true;
  }
  FlightRecorder* EnableRecorder(const WatchdogConfig& config) {
    if (recorder_ != nullptr) {
      return nullptr;
    }
    recorder_ = std::make_unique<FlightRecorder>(config);
    latency_.set_recorder(recorder());
    return recorder();
  }

 private:
  PacketPool pool_;
  LatencyTracer latency_;
  CausalTracer causal_;
  LatencyTracer* latency_sink_ = nullptr;
  CausalTracer* causal_sink_ = nullptr;
  std::unique_ptr<FlightRecorder> recorder_;
};

}  // namespace tas

#endif  // SRC_SIM_CONTEXT_H_
