// Request-level causal tracing with critical-path analysis (DESIGN.md §12).
//
// Dapper-style: the workload tier (ProxyClientGen) mints a TraceContext —
// a trace id plus the id of the span the next hop should parent under — and
// carries it on every wire message. Each tier that touches the request opens
// a span (client request, proxy job, origin fetch, origin serve), so a
// finished trace holds a span *tree* spanning hosts. Alongside the tree,
// tiers drop critical-path *marks*: interval-ends-here edge stamps (the
// LatencyTracer discipline from PR 5, lifted from packets to requests) where
// Mark(edge, now) charges [previous mark, now) to `edge`. Because every tier
// marks exactly the moment the request stopped waiting on it, the mark chain
// IS the blocking chain — extracting the critical path is a linear walk, and
// the per-edge durations of a finished trace always sum exactly to its
// end-to-end time (`critical_path_mismatches` counts violations, mirroring
// PR 5's partition invariant).
//
// In-flight traces live in a RecordRing (record_ring.h) keyed by trace id,
// with stale-id rejection. Requests cross hosts, so one tracer per experiment observes the whole
// path; tiers reach it through ExperimentContext::causal_sink()
// (src/sim/context.h). A null sink costs each instrumentation site one
// load + branch, and trace ids on the wire are 0 — tracing off changes no
// message size and no behavior.
#ifndef SRC_TRACE_CAUSAL_H_
#define SRC_TRACE_CAUSAL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/record_ring.h"
#include "src/trace/report.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace tas {

// Carried on wire messages: which trace this request belongs to and which
// span the receiving tier should parent its own span under. trace_id 0 means
// "untraced" (tracing disabled or ring slot recycled).
struct TraceContext {
  uint64_t trace_id = 0;
  uint32_t parent_span = 0;
};

// Critical-path edge classes: what the request was waiting on during each
// interval of its life. Network edges cover whole packet journeys (PR 5's
// per-packet stages decompose them further); wait edges are proxy-level
// queues invisible to per-packet histograms; service edges are tier compute.
enum class CausalEdge : uint8_t {
  kNetRequest = 0,  // Client wrote request -> proxy parsed it.
  kCacheWork,       // Proxy parse -> cache hit ready (hit path only).
  kCoalesceWait,    // Coalesced miss parked -> primary fetch landed/fanned out.
  kOverflowQueue,   // Pool dispatch -> assigned to an origin connection.
  kOriginQueue,     // Assigned -> request bytes accepted by the origin conn.
  kNetToOrigin,     // Written -> origin parsed the request.
  kOriginServe,     // Origin parsed -> response fully accepted by its stack.
  kNetFromOrigin,   // Origin response in flight -> proxy job ready.
  kProxySend,       // Proxy parse/ready -> last response byte accepted.
  kNetResponse,     // Proxy finished -> client consumed the full response.
};
inline constexpr int kNumCausalEdges = 10;

const char* CausalEdgeName(CausalEdge edge);
// "network", "wait", or "service" — the report's class column.
const char* CausalEdgeClass(CausalEdge edge);

// How the request was ultimately served. A coalesced waiter that got fanned
// out to its own fetch counts as its final path (store/splice), not
// coalesced; its coalesce_wait edge still shows the time parked.
enum class RequestClass : uint8_t { kHit = 0, kStore, kSplice, kCoalesced };
inline constexpr int kNumRequestClasses = 4;

const char* RequestClassName(RequestClass cls);

enum class CausalSpanKind : uint8_t { kRequest = 0, kProxyJob, kOriginFetch, kOriginServe };

const char* CausalSpanKindName(CausalSpanKind kind);

// One node of a request's span tree. `parent` 0 = root. `end` 0 = the span
// was never closed (its tier died mid-request; the request completed via a
// re-dispatched attempt).
struct CausalSpan {
  uint32_t id = 0;
  uint32_t parent = 0;
  CausalSpanKind kind = CausalSpanKind::kRequest;
  TimeNs start = 0;
  TimeNs end = 0;
  uint32_t object_id = 0;
  uint32_t request_id = 0;
};

// Interval-ends-here stamp: charges [previous mark, t) to `edge`.
struct CausalMark {
  TimeNs t = 0;
  CausalEdge edge = CausalEdge::kNetRequest;
};

// Cross-trace causality: the primary fetch's span unblocked a coalesced
// waiter's job span (rendered as a Perfetto flow arrow between exemplars).
struct CausalLink {
  uint64_t from_trace = 0;
  uint32_t from_span = 0;
  uint32_t to_span = 0;  // Belongs to the trace the link is recorded on.
};

// A finished trace retained whole (top-k slowest per class).
struct TraceExemplar {
  uint64_t trace_id = 0;
  RequestClass cls = RequestClass::kHit;
  TimeNs start = 0;
  TimeNs end = 0;
  std::vector<CausalSpan> spans;
  std::vector<CausalMark> marks;  // Final kNetResponse mark included.
  std::vector<CausalLink> links;
};

// --- Span-tree assembly -----------------------------------------------------

// Tree over indices into the input span vector. Spans whose parent id is
// missing (dropped by a capacity cap or a tier that died) attach under the
// root and are counted — an orphan is a degraded tree, not an error.
struct SpanTree {
  struct Node {
    size_t span = 0;  // Index into the input vector.
    std::vector<size_t> children;  // Node indices, in input order.
    bool orphan = false;  // Parent id was nonzero but not present.
  };
  std::vector<Node> nodes;  // nodes[i] describes spans[i].
  size_t root = SIZE_MAX;   // Node index of the first parentless span.
  size_t orphans = 0;
};

SpanTree AssembleSpanTree(const std::vector<CausalSpan>& spans);

// --- Critical-path extraction ----------------------------------------------

struct CriticalPathEdge {
  CausalEdge edge = CausalEdge::kNetRequest;
  TimeNs duration = 0;
};

// Walks the mark chain of a trace spanning [start, end] and accumulates one
// duration per touched edge (in first-touched order). Returns false — and
// leaves *out partial — if the chain cannot partition [start, end]: no
// marks, a non-monotone timestamp, a first mark before start, or a last mark
// that is not exactly `end`.
bool ExtractCriticalPath(TimeNs start, TimeNs end, const std::vector<CausalMark>& marks,
                         std::vector<CriticalPathEdge>* out);

// --- Report -----------------------------------------------------------------

// One row: an edge of one request class, or the synthetic "e2e" row. The
// row's name is the edge name; cls is "network", "wait", "service", or
// "total" for e2e; count is the traces of the class whose path touched the
// edge; share is the edge's share of the class's summed end-to-end time.
using CriticalPathEdgeSummary = ReportRow;

struct CriticalPathClassSummary {
  std::string request_class;
  uint64_t count = 0;  // Completed traces of this class.
  std::vector<CriticalPathEdgeSummary> edges;  // "e2e" row first.

  const CriticalPathEdgeSummary* Find(const std::string& edge) const {
    return FindRow(edges, edge);
  }
};

struct CriticalPathReport {
  uint64_t completed = 0;
  uint64_t abandoned = 0;
  uint64_t dropped = 0;    // Ring wrapped over a live trace.
  uint64_t stale = 0;      // Stamps after drop/finish.
  uint64_t truncated = 0;  // Per-trace span/mark caps hit.
  uint64_t mismatches = 0;  // critical_path_mismatches.
  std::vector<CriticalPathClassSummary> classes;  // Only classes with traffic.

  const CriticalPathClassSummary* Find(const std::string& request_class) const;
  // Single-line JSON (proxy_cycles' det.critical_path and the
  // <prefix>.critical_path.json file format).
  std::string ToJson() const;
  // Fixed-width text table for terminal output.
  std::string ToTable() const;
};

// --- Tracer -----------------------------------------------------------------

class CausalTracer {
 public:
  // Slowest trace trees kept per request class.
  static constexpr size_t kExemplarsPerClass = 3;

  explicit CausalTracer(size_t trace_capacity = 1u << 13);

  // Opens a trace whose clock starts at `start`; ids are never 0. If the
  // ring slot still holds a live trace, that oldest trace is dropped.
  uint64_t BeginTrace(TimeNs start);
  // Adds a span under `parent` (0 = root). Returns the span id (0 if the
  // trace is gone or its span cap is hit — safe to carry on the wire).
  uint32_t StartSpan(uint64_t trace, uint32_t parent, CausalSpanKind kind, TimeNs start,
                     uint32_t object_id = 0, uint32_t request_id = 0);
  void EndSpan(uint64_t trace, uint32_t span, TimeNs end);
  // Charges [previous mark, now) on the trace's critical path to `edge`.
  void Mark(uint64_t trace, CausalEdge edge, TimeNs now);
  // Records how the request was served (the proxy decides at response time).
  void SetClass(uint64_t trace, RequestClass cls);
  // Cross-trace arrow: `from` (usually the primary fetch span) unblocked
  // `to_span` of `to_trace`.
  void Link(uint64_t from_trace, uint32_t from_span, uint64_t to_trace, uint32_t to_span);
  // Completes the trace at `end`: appends the final kNetResponse mark,
  // verifies the chain partitions [start, end], folds per-(class, edge)
  // histograms, and retains the trace as an exemplar if it is among the k
  // slowest of its class.
  void Finish(uint64_t trace, TimeNs end);
  // Retires a trace without folding it (request retried / client died).
  void Abandon(uint64_t trace);

  uint64_t completed() const { return completed_; }
  uint64_t abandoned() const { return abandoned_; }
  uint64_t dropped() const { return ring_.evicted(); }
  uint64_t stale() const { return stale_; }
  uint64_t truncated() const { return truncated_; }
  // Truncation attributed to the cap that was hit — which stream overflowed
  // (the satellite fix to the single opaque `truncated` counter). One trace
  // can charge several caps; the per-site counters count capped *calls*, the
  // aggregate above counts discarded *traces*.
  uint64_t truncated_spans() const { return truncated_spans_; }
  uint64_t truncated_marks() const { return truncated_marks_; }
  uint64_t truncated_links() const { return truncated_links_; }
  // Finished traces whose mark chain failed to partition end-to-end time, or
  // that never got a class — 0 unless a stamp site regresses.
  uint64_t critical_path_mismatches() const { return critical_path_mismatches_; }

  const LogHistogram& edge_hist(RequestClass cls, CausalEdge edge) const {
    return edge_hist_[Idx(cls, edge)];
  }
  const RunningStats& edge_stats(RequestClass cls, CausalEdge edge) const {
    return edge_stats_[Idx(cls, edge)];
  }
  const LogHistogram& e2e_hist(RequestClass cls) const {
    return e2e_hist_[static_cast<size_t>(cls)];
  }
  const RunningStats& e2e_stats(RequestClass cls) const {
    return e2e_stats_[static_cast<size_t>(cls)];
  }
  // Slowest finished traces of `cls`, worst first.
  const std::vector<TraceExemplar>& exemplars(RequestClass cls) const {
    return exemplars_[static_cast<size_t>(cls)];
  }

  CriticalPathReport Report() const;
  void Clear();

 private:
  // Per-trace caps: a request touches a handful of spans/marks; re-dispatch
  // storms under faults may repeat queue edges, so leave headroom. A capped
  // trace is counted `truncated` and excluded from folding, never silently
  // mis-attributed.
  static constexpr size_t kMaxSpans = 16;
  static constexpr size_t kMaxMarks = 48;
  static constexpr size_t kMaxLinks = 8;

  struct TraceRec {
    TimeNs start = 0;
    RequestClass cls = RequestClass::kHit;
    bool has_class = false;
    bool truncated = false;
    std::vector<CausalSpan> spans;
    std::vector<CausalMark> marks;
    std::vector<CausalLink> links;
  };

  static size_t Idx(RequestClass cls, CausalEdge edge) {
    return static_cast<size_t>(cls) * kNumCausalEdges + static_cast<size_t>(edge);
  }

  // The live trace `id`, or null (counted as stale unless id is 0).
  TraceRec* Live(uint64_t id);
  void MaybeRetainExemplar(uint64_t id, const TraceRec& rec, TimeNs end);

  RecordRing<TraceRec> ring_;  // Allocated by the first BeginTrace.
  uint32_t next_span_id_ = 1;

  std::array<LogHistogram, kNumRequestClasses * kNumCausalEdges> edge_hist_;
  std::array<RunningStats, kNumRequestClasses * kNumCausalEdges> edge_stats_;
  std::array<LogHistogram, kNumRequestClasses> e2e_hist_;
  std::array<RunningStats, kNumRequestClasses> e2e_stats_;
  std::array<std::vector<TraceExemplar>, kNumRequestClasses> exemplars_;

  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t stale_ = 0;
  uint64_t truncated_ = 0;
  uint64_t truncated_spans_ = 0;
  uint64_t truncated_marks_ = 0;
  uint64_t truncated_links_ = 0;
  uint64_t critical_path_mismatches_ = 0;
};

}  // namespace tas

#endif  // SRC_TRACE_CAUSAL_H_
