// Always-on flight recorder + diagnostic bundles (DESIGN.md §15).
//
// A production TCP service needs a black box: when a p99 SLO burns or
// retransmits spike, operators must get the evidence *window* without
// re-running with full tracing on. The FlightRecorder continuously retains
// the last W ms of three record streams — flow events, latency-anatomy
// completions, and the watchdog's per-check SLO measurements — in one
// RecordRing (record_ring.h) per stream: fixed-capacity rings of POD
// records, overwrite-oldest, per-stream drop counters, no storage until a
// stream's first record. Every tap is a plain
// array write; the armed-but-untriggered cost is a null/flag check per site
// plus that write, and nothing on the simulation side changes (no CPU
// charges, no RNG draws, no packets) — armed runs are timing-passive.
//
// On a watchdog breach (src/tas/watchdog) the recorder serializes a
// *diagnostic bundle*: the window's merged records (JSONL + Perfetto), a full
// metrics snapshot of the breaching host, steering / flow-table / slow-path
// state, and a machine-readable trigger record (which SLO, evidence window,
// measured vs threshold). Triggers read only deterministic sim state and
// bundles are serialized at the breach point, so same-seed runs produce
// byte-identical bundles.
//
// One recorder per experiment, owned by its ExperimentContext
// (src/sim/context.h): the first watchdog-enabled TAS host configures it, and
// every tap site in every host of the experiment then feeds it.
#ifndef SRC_TRACE_FLIGHT_RECORDER_H_
#define SRC_TRACE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/trace/flow_tracer.h"
#include "src/trace/record_ring.h"
#include "src/util/time.h"

namespace tas {

// --- SLO specification (the watchdog's declarative input) -------------------

enum class SloKind : uint8_t {
  kE2eLatencyP99 = 0,    // Windowed packet e2e p99 [ns].
  kRetransmitRate,       // Retransmits per second over the check window.
  kSlowPathQueueDepth,   // Exception-queue depth at check time [packets].
  kFlowTableProbeP99,    // Windowed flow-table probe-length p99 [groups].
  kCoreImbalance,        // Busiest active core's share of the window's
                         // fast-path busy time, normalized: max/mean in
                         // [1, active_cores].
  kMetricValue,          // Any registered gauge/counter by name (SloSpec::
                         // metric) at check time — proxy SLOs use this.
};
inline constexpr int kNumSloKinds = 6;

const char* SloKindName(SloKind kind);

struct SloSpec {
  std::string name;       // Stable identifier used in triggers and bundles.
  SloKind kind = SloKind::kE2eLatencyP99;
  double threshold = 0;   // Breach when measured > threshold.
  int burn_windows = 3;   // Consecutive breached checks before triggering.
  // Evaluation floor: percentile kinds need this many window samples;
  // kCoreImbalance needs this many busy ns in the window. Below it the check
  // records its measurement but cannot breach (idle windows are not anomalies).
  uint64_t min_count = 16;
  std::string metric;     // kMetricValue: registered metric name to read.
};

// TasConfig::watchdog — arms the recorder + watchdog on a TAS host.
struct WatchdogConfig {
  bool enabled = false;
  // SLO evaluation cadence; 0 = the service's monitor_interval.
  TimeNs check_interval = 0;
  // Evidence window: a trigger captures [breach - recorder_window, breach].
  TimeNs recorder_window = Ms(50);
  // Ring capacities of the flow and latency streams (rounded up to a power
  // of two); the SLO ring's is a FlightRecorder constant.
  size_t flow_ring_capacity = 1u << 14;
  size_t latency_ring_capacity = 1u << 14;
  // Empty = DefaultSlos() (conservative thresholds that never fire on a
  // healthy run; see flight_recorder.cc).
  std::vector<SloSpec> slos;
  // Bundle file prefix; files are "<prefix>.bundle<k>.{json,jsonl,
  // perfetto.json}". Empty = armed in-memory only (triggers still recorded).
  std::string bundle_prefix;
  TimeNs cooldown = Ms(20);    // Per-SLO quiet period after a trigger.
};

// Returns the conservative default SLO set (used when WatchdogConfig::slos
// is empty): generous thresholds on e2e p99, retransmit rate, slow-path
// queue depth, flow-table probe p99, and core imbalance.
std::vector<SloSpec> DefaultSlos();

// --- Recorder records --------------------------------------------------------

enum class RecorderStream : uint8_t { kFlow = 0, kLatency, kSlo };
inline constexpr int kNumRecorderStreams = 3;

const char* RecorderStreamName(RecorderStream stream);

// One retained record. POD: ring writes never allocate. The payload slots are
// stream-typed:
//   kFlow:    type = FlowEventType, a = flow id, b/c/d = event args a/b/c.
//   kLatency: a = e2e ns, b = queue-wait ns, c = service ns.
//   kSlo:     type = SloKind, v = measured value (a = 1 if breached).
struct RecorderRecord {
  TimeNs t = 0;
  uint64_t seq = 0;    // Append order across all streams.
  RecorderStream stream = RecorderStream::kFlow;
  uint8_t type = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t d = 0;
  double v = 0;
};

// --- Trigger record ----------------------------------------------------------

// Machine-readable description of one watchdog breach.
struct SloTrigger {
  std::string slo;        // SloSpec::name.
  SloKind kind = SloKind::kE2eLatencyP99;
  double measured = 0;
  double threshold = 0;
  int burn_windows = 0;   // Consecutive breached checks that armed this.
  TimeNs t = 0;           // Breach (check) time.
  TimeNs window_from = 0; // Evidence window [window_from, window_to] ==
  TimeNs window_to = 0;   //   [t - recorder_window, t].
  std::string source;     // Breaching host, e.g. "h1".
  int bundle = -1;        // Bundle index, or -1 if not serialized (no prefix
                          // or kMaxBundles exhausted).
};

// --- FlightRecorder ----------------------------------------------------------

class FlightRecorder {
 public:
  static constexpr size_t kSloRingCapacity = 1u << 12;
  // Bundles serialized per recorder; later triggers are recorded only.
  static constexpr int kMaxBundles = 4;

  explicit FlightRecorder(const WatchdogConfig& config);

  const WatchdogConfig& config() const { return config_; }

  // --- Taps (ring write only) ------------------------------------------------
  void RecordFlowEvent(const FlowEvent& e);
  void RecordLatency(TimeNs t, uint64_t e2e_ns, uint64_t queue_ns, uint64_t service_ns);
  void RecordSlo(TimeNs t, SloKind kind, double measured, bool breached);

  // --- Window capture ---------------------------------------------------------
  // All retained records with t in [from, to], merged across streams and
  // sorted by (t, seq).
  std::vector<RecorderRecord> CaptureWindow(TimeNs from, TimeNs to) const;

  // Per-stream retention counters.
  uint64_t recorded(RecorderStream stream) const;
  uint64_t overwritten(RecorderStream stream) const;

  // --- Triggers & bundles ----------------------------------------------------
  // Records a breach and, while the bundle budget lasts, serializes its
  // bundle right away. `context_json` returns the bundle's "context" object:
  // metrics snapshot, steering/flow-table/slow-path state.
  void Trigger(SloTrigger trigger, std::function<std::string()> context_json);

  // All triggers so far, in serialization order (benches and tests assert on
  // these without touching the filesystem).
  const std::vector<SloTrigger>& triggers() const { return triggers_; }
  int bundles_written() const { return bundles_written_; }

 private:
  void Append(RecorderStream stream, RecorderRecord rec);
  void WriteBundleJsonl(const std::vector<RecorderRecord>& records, std::ostream& os) const;
  void WriteBundlePerfetto(const SloTrigger& trigger,
                           const std::vector<RecorderRecord>& records,
                           std::ostream& os) const;

  WatchdogConfig config_;
  std::vector<RecordRing<RecorderRecord>> streams_;  // Indexed by RecorderStream.
  uint64_t next_seq_ = 0;

  std::vector<SloTrigger> triggers_;
  int bundles_written_ = 0;
};

// Serializes a trigger as a single-line JSON object (the bundle's "trigger"
// field and the WATCHDOG JSON lines benches emit).
std::string SloTriggerToJson(const SloTrigger& trigger);

}  // namespace tas

#endif  // SRC_TRACE_FLIGHT_RECORDER_H_
