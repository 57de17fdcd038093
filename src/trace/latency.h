// Per-packet latency anatomy (paper Table 1 / Fig 9): stage-stamp records
// that decompose a packet's lifetime into queue-wait and service intervals —
// context-queue wait, fast-path TX service, egress-buffer wait, wire time,
// switch queueing, NIC RX ring wait, and receive-side processing.
//
// Records live in a side RecordRing (record_ring.h) keyed by the generation
// id the packet carries (Packet::lat_id), NOT in Packet itself: pooled
// packets stay small, and an overflowing ring overwrites the oldest record
// without corrupting newer ones (the id check rejects stale stamps). Stamp
// sites take the current simulation time explicitly, so this module depends
// only on src/util and sits below src/net in the link order; devices reach their experiment's
// tracer through ExperimentContext::latency_sink() (src/sim/context.h).
// While latency tracing is off every instrumentation site costs one load +
// branch.
//
// Stage accounting is interval-ends-here: each Stamp(stage, now) charges
// [last_stamp, now) to `stage` and advances the cursor, so a packet crossing
// two links accumulates both egress waits into the same stage bucket and the
// per-stage values of a finished record always sum exactly to its
// end-to-end time.
#ifndef SRC_TRACE_LATENCY_H_
#define SRC_TRACE_LATENCY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/record_ring.h"
#include "src/trace/report.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace tas {

class FlightRecorder;

// Lifecycle stages, in the order a data packet traverses them. Queue stages
// measure time spent waiting in a buffer; service stages measure active
// processing or wire occupancy (DESIGN.md §10 maps each to its stamp sites).
enum class LatencyStage : uint8_t {
  kCtxQueue = 0,  // App send enqueued -> fast-path batch dispatched it.
  kFpTx,          // Dispatch -> segment built and handed to the NIC.
  kLinkQueue,     // Egress buffer admit -> wire serialization start (per hop).
  kLinkWire,      // Serialization start -> delivered at the far end (per hop).
  kSwitchQueue,   // Switch ingress -> forwarded out of the pending queue.
  kNicRxRing,     // RX ring deposit -> host polled it off the ring.
  kFpRx,          // Poll -> consumed (payload delivered / ACK processed).
};
inline constexpr int kNumLatencyStages = 7;

const char* LatencyStageName(LatencyStage stage);
// Queue-wait stages wait on a resource; the rest are service time.
bool LatencyStageIsQueue(LatencyStage stage);

// Summary row of a LatencyReport: one stage, or one of the synthetic rows
// ("e2e" per-record totals, "queue_wait"/"service" per-record class totals).
// The row's name is the stage name; cls is "queue", "service", or "total".
using LatencyStageSummary = ReportRow;

struct LatencyReport {
  uint64_t completed = 0;
  uint64_t abandoned = 0;    // Dropped / exception packets.
  uint64_t overwritten = 0;  // Ring wrapped over an unfinished record.
  uint64_t stale = 0;        // Stamps that arrived after overwrite/finish.
  std::vector<LatencyStageSummary> stages;

  const LatencyStageSummary* Find(const std::string& stage) const {
    return FindRow(stages, stage);
  }
  // Single-line JSON object (perf_smoke's det.latency and the
  // <prefix>.latency.json file format).
  std::string ToJson() const;
  // Fixed-width text table for terminal output.
  std::string ToTable() const;
};

class LatencyTracer {
 public:
  explicit LatencyTracer(size_t ring_capacity = 1u << 12);

  // Every finished record is also handed to `recorder` (null: none).
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // Opens a record whose clock starts at `start` (ids are never 0, so a
  // Packet::lat_id of 0 means "untracked"). If the ring slot still holds an
  // unfinished record, that oldest record is dropped and counted. The ring is
  // allocated by the first Begin, so a tracer that never opens a record
  // holds none.
  uint64_t Begin(TimeNs start);
  // Charges [last stamp, now) to `stage`. Ignores id 0 and stale ids.
  void Stamp(uint64_t id, LatencyStage stage, TimeNs now);
  // Final stamp: charges the last interval to `stage`, folds every touched
  // stage into the per-stage histograms, and retires the record.
  void Finish(uint64_t id, LatencyStage stage, TimeNs now);
  // Retires a record without folding it (packet dropped / exception path).
  void Abandon(uint64_t id);

  uint64_t completed() const { return completed_; }
  uint64_t abandoned() const { return abandoned_; }
  uint64_t overwritten() const { return ring_.evicted(); }
  uint64_t stale() const { return stale_; }
  // Records whose folded stage intervals failed to sum to their end-to-end
  // time — always 0 unless a stamp site regresses (latency_test asserts it).
  uint64_t partition_mismatches() const { return partition_mismatches_; }

  const LogHistogram& stage_hist(LatencyStage stage) const {
    return stage_hist_[static_cast<size_t>(stage)];
  }
  const RunningStats& stage_stats(LatencyStage stage) const {
    return stage_stats_[static_cast<size_t>(stage)];
  }
  const LogHistogram& e2e_hist() const { return e2e_hist_; }
  const RunningStats& e2e_stats() const { return e2e_stats_; }

  LatencyReport Report() const;
  // Resets every record and statistic; the ring keeps its storage.
  void Clear();
  // Records the ring holds storage for (0 until the first Begin).
  size_t ring_slots() const { return ring_.slots(); }

 private:
  struct Record {
    TimeNs start = 0;
    TimeNs last = 0;
    uint32_t touched = 0;  // Bitmask of stamped stages.
    std::array<uint64_t, kNumLatencyStages> stage_ns{};
  };

  // The live record `id`, or null (counted as stale) if it was retired or
  // overwritten, or the ring was never allocated.
  Record* Live(uint64_t id);

  FlightRecorder* recorder_ = nullptr;
  RecordRing<Record> ring_;

  std::array<LogHistogram, kNumLatencyStages> stage_hist_;
  std::array<RunningStats, kNumLatencyStages> stage_stats_;
  LogHistogram e2e_hist_;
  RunningStats e2e_stats_;
  // Per-record totals over the queue-wait / service stage classes.
  LogHistogram queue_wait_hist_;
  RunningStats queue_wait_stats_;
  LogHistogram service_hist_;
  RunningStats service_stats_;

  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t stale_ = 0;
  uint64_t partition_mismatches_ = 0;
};

}  // namespace tas

#endif  // SRC_TRACE_LATENCY_H_
