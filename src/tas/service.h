// TasService: the TAS process (paper §4) — owns the NIC, a configurable
// maximum number of fast-path cores, the slow path, the flow table, and the
// per-application context queues. libTAS (src/libtas) talks to it the way
// the real libTAS talks to TAS: commands and payload via shared-memory
// queues and buffers, connection control via the slow path.
#ifndef SRC_TAS_SERVICE_H_
#define SRC_TAS_SERVICE_H_

#include <array>
#include <memory>
#include <vector>

#include "src/cc/dctcp_rate.h"
#include "src/cpu/core.h"
#include "src/cpu/cost_model.h"
#include "src/nic/nic.h"
#include "src/shm/context_queue.h"
#include "src/sim/context.h"
#include "src/tas/flow.h"
#include "src/tas/flow_table.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/tracer.h"
#include "src/util/port_table.h"
#include "src/util/rng.h"

namespace tas {

class FastPathCore;
class FlowGroupSteering;
class SloWatchdog;
class SlowPath;

// How the fast path handles out-of-order arrivals (Fig 7 ablation).
enum class OooMode {
  kSingleInterval,  // Paper default: track one interval.
  kGoBackN,         // "TAS simple recovery": drop all out-of-order data.
};

struct TasConfig {
  int max_fastpath_cores = 4;
  // Workload proportionality (paper §3.4). When false, all cores stay active.
  bool dynamic_cores = false;
  TimeNs monitor_interval = Ms(1);

  // Congestion control (slow path policy), enforced by the fast path's
  // per-flow rate bucket. A window algorithm (kDctcpWindow) runs as the rate
  // that sends one window per RTT (WindowRateCc, as TAS's cc.c does),
  // starting at dctcp.initial_bps until the flow's first RTT sample.
  CcAlgorithm cc_algorithm = CcAlgorithm::kDctcpRate;
  DctcpRateConfig dctcp;
  TimeNs control_interval = Us(50);     // tau; paper default 2 RTTs.

  // Connection parameters.
  uint16_t mss = 1448;
  uint32_t rx_buffer_bytes = 64 * 1024;
  uint32_t tx_buffer_bytes = 64 * 1024;
  TimeNs handshake_rto = Ms(20);  // SYN/FIN retransmission (doubles per retry).
  int max_handshake_retries = 8;
  OooMode ooo_mode = OooMode::kSingleInterval;

  // Fast-path batching (paper §3.1: DPDK-style bursts). Each RunOne()
  // dispatch drains up to this many RX packets plus queued TX/window-update
  // work and retires them with a single aggregated completion event.
  // 1 reproduces the pre-batching packet-serial semantics exactly.
  int rx_batch_size = 16;
  // libTAS-side analogue: events drained from a context queue per app
  // wakeup (mTCP-style batched event delivery).
  int app_event_batch = 16;

  // CPU cost model for the fast path side.
  const StackCostModel* costs = &TasSocketsCostModel();

  // Observability (src/trace): flow-event tracing, CPU spans, periodic
  // sampling. Everything defaults to off; the metric registry is always on
  // (it only holds pointers into the stats structs).
  TraceConfig trace;

  // Flight recorder + SLO watchdog (DESIGN.md §15). When enabled, the first
  // such host configures the experiment's FlightRecorder and every armed host
  // runs an SloWatchdog on the monitor cadence; a sustained breach serializes
  // a diagnostic bundle. Off by default — and costs nothing off.
  WatchdogConfig watchdog;
};

// Classes of the slow path's work items, served flow class first: kFlow
// holds segments of connections the slow path already tracks; kSetup holds
// segments with SYN set and ACK clear (new connections) and the apps'
// connect and close commands.
enum class ExceptionClass : uint8_t { kFlow, kSetup };
constexpr size_t kNumExceptionClasses = 2;

struct TasStats {
  uint64_t fastpath_rx_packets = 0;
  uint64_t fastpath_tx_packets = 0;
  uint64_t fastpath_acks_sent = 0;
  uint64_t rx_buffer_drops = 0;   // Payload buffer full (paper: just drop).
  uint64_t ooo_accepted = 0;
  uint64_t ooo_dropped = 0;
  uint64_t fast_retransmits = 0;
  // Pacing timers the slow path moved earlier by raising the flow's rate,
  // and the summed time by which they moved.
  uint64_t pacing_rearms = 0;
  uint64_t pacing_rearm_saved_ns = 0;
  uint64_t timeout_retransmits = 0;
  uint64_t handshake_retransmits = 0;  // SYN/SYN-ACK resends by the slow path.
  uint64_t exceptions = 0;
  // The same exceptions by the flow's ConnState when forwarded; segments
  // with no flow count under kFreed. Exported as
  // tas.slowpath.exceptions.<state>.
  std::array<uint64_t, kNumConnStates> exceptions_by_state{};
  // The slow path's two work classes (SlowPath's executor), indexed by
  // ExceptionClass: work items served, and their summed wait from enqueue
  // to the end of the item's charge. Exported as
  // tas.slowpath.exception_count.<class> and .exception_wait_ns.<class>.
  std::array<uint64_t, kNumExceptionClasses> exception_count{};
  std::array<uint64_t, kNumExceptionClasses> exception_wait_ns{};
  uint64_t cross_core_packets = 0;
  uint64_t slowpath_packets = 0;
  uint64_t connections_established = 0;
  uint64_t connections_closed = 0;
};

class TasService {
 public:
  TasService(Simulator* sim, HostPort* port, const TasConfig& config);
  ~TasService();

  TasService(const TasService&) = delete;
  TasService& operator=(const TasService&) = delete;

  // --- libTAS-facing API ----------------------------------------------------
  // Registers an application context queue pair; returns the context id.
  uint16_t RegisterContext(AppContext* context);
  // Starts a passive listener; incoming connections are announced on the
  // registered context as kAcceptable events carrying the new flow id.
  void Listen(uint16_t port, uint64_t opaque, uint16_t context);
  // Starts an active open. The flow id is allocated synchronously; the
  // handshake completes asynchronously and is announced with kConnOpened.
  FlowId Connect(IpAddr dst_ip, uint16_t dst_port, uint64_t opaque, uint16_t context);
  // Graceful close (FIN after pending data drains).
  void Close(FlowId flow_id);
  // Shared-memory view of the flow (libTAS reads/writes payload buffers).
  Flow* GetFlow(FlowId flow_id);

  // --- Introspection ---------------------------------------------------------
  Simulator* sim() const { return sim_; }
  // The experiment's shared state: packet pool, tracers, flight recorder.
  ExperimentContext& context() const { return sim_->context(); }
  SimNic* nic() { return nic_.get(); }
  const TasConfig& config() const { return config_; }
  const TasStats& stats() const { return stats_; }
  TasStats& mutable_stats() { return stats_; }
  int active_cores() const { return active_cores_; }
  int max_cores() const { return config_.max_fastpath_cores; }
  Core* fastpath_cpu(int i);
  Core* slowpath_cpu();
  SlowPath* slow_path() { return slow_path_.get(); }
  FastPathCore* fastpath(int i);
  size_t num_flows() const { return live_flows_; }
  IpAddr local_ip() const;
  // A segment of the connection `fs` sends, drawn from the experiment's pool.
  PacketPtr FlowSegment(const FlowState& fs, uint32_t seq, uint32_t ack, uint8_t flags) {
    return MakeTcpPacket(context().pool(), local_ip(), fs.local_port, fs.peer_ip, fs.peer_port,
                         seq, ack, flags);
  }
  // The host's observability bundle: metric registry, flow-event tracer,
  // time-series sampler, CPU span recorder, exporters (src/trace).
  Tracer& tracer() { return *tracer_; }
  const Tracer& tracer() const { return *tracer_; }
  // Shorthand the fast/slow paths use on their emission sites.
  FlowTracer& flow_trace() { return tracer_->flow_events(); }
  // (time, active core count) series for the Fig 14 proportionality plot —
  // an event-driven TimeSeries ("tas.active_cores") in the unified sampler.
  const TimeSeries& core_trace() const { return *core_series_; }

  // --- Internal API shared by fast path / slow path / libtas ----------------
  AppContext* context(uint16_t id) { return contexts_[id]; }
  uint16_t num_contexts() const { return static_cast<uint16_t>(contexts_.size()); }
  Flow* LookupFlow(const FlowKey& key);
  FlowId LookupFlowId(const FlowKey& key);
  // Read-only view of the lookup structure (bench occupancy/probe reports).
  const FlowTable& flow_table() const { return flow_table_; }
  // Generation-checked: a stale id (slot recycled since) yields nullptr.
  Flow* flow_by_id(FlowId id) { return flows_.Get(id); }
  FlowId AllocateFlow(const FlowKey& key);
  void FreeFlow(FlowId id);
  uint16_t AllocateEphemeralPort();
  // Which fast-path core currently owns packets of this flow (RSS steering).
  int CoreForFlow(const Flow& flow) const;
  // The flow's RSS redirection entry == its flow group (steering unit).
  int RedirectionEntryForFlow(const Flow& flow) const;
  FlowGroupSteering* steering() { return steering_.get(); }
  // This host's SLO watchdog (null unless config.watchdog.enabled).
  SloWatchdog* watchdog() { return watchdog_.get(); }
  // Queues transmit work for a flow on its owning core, at once or, when
  // `earliest` lies ahead, from the flow's pacing timer. A flow already
  // holding queued work or an armed timer is left alone.
  void ScheduleFlowTx(FlowId id, TimeNs earliest);
  // Publishes the slow path's new rate for the flow. A raised rate moves an
  // armed pacing timer to when the bucket allows at the new rate.
  void PublishRate(FlowId id, Flow& flow, double rate_bps);
  // Marks a flow for the slow path's next congestion-control iteration.
  void MarkFlowDirty(FlowId id);
  void SetActiveCores(int count);
  Rng& rng() { return rng_; }
  uint64_t ExtraCacheCyclesPerPacket() const {
    return config_.costs->cache.ExtraCyclesPerPacket(live_flows_);
  }
  std::vector<FlowId>& dirty_flows() { return dirty_flows_; }

 private:
  void DrainContextCommands(uint16_t context_id);
  // Arms the flow's pacing timer; none may be armed.
  void ArmPacingTimer(FlowId id, Flow& flow, TimeNs when);
  // Hands the flow's transmit work to its core, or parks it on its flow
  // group while the group migrates.
  void DispatchFlowTx(FlowId id, const Flow& flow);
  // Wires every subsystem into the tracer: metric registration, CPU span
  // listeners, per-core / per-flow sampling probes. Runs once from the ctor;
  // `recorder` is the flight recorder this host configured, else null.
  void RegisterTraceInstrumentation(FlightRecorder* recorder);

  Simulator* sim_;
  TasConfig config_;
  // Declared before the subsystems whose gauges/listeners reference it.
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<SimNic> nic_;
  std::unique_ptr<Core> slowpath_core_;
  std::vector<std::unique_ptr<Core>> fastpath_cores_;
  std::vector<std::unique_ptr<FastPathCore>> fastpaths_;
  std::unique_ptr<FlowGroupSteering> steering_;
  std::unique_ptr<SlowPath> slow_path_;
  std::vector<AppContext*> contexts_;

  FlowSlab flows_;
  FlowTable flow_table_;
  std::vector<FlowId> dirty_flows_;
  size_t live_flows_ = 0;
  PortTable ports_;
  int active_cores_ = 1;
  std::unique_ptr<SloWatchdog> watchdog_;
  TimeSeries* core_series_ = nullptr;  // Owned by tracer_->sampler().
  TasStats stats_;
  Rng rng_;
};

}  // namespace tas

#endif  // SRC_TAS_SERVICE_H_
