#include "src/trace/causal.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/util/logging.h"

namespace tas {

const char* CausalEdgeName(CausalEdge edge) {
  switch (edge) {
    case CausalEdge::kNetRequest:
      return "net_request";
    case CausalEdge::kCacheWork:
      return "cache_work";
    case CausalEdge::kCoalesceWait:
      return "coalesce_wait";
    case CausalEdge::kOverflowQueue:
      return "overflow_queue";
    case CausalEdge::kOriginQueue:
      return "origin_queue";
    case CausalEdge::kNetToOrigin:
      return "net_to_origin";
    case CausalEdge::kOriginServe:
      return "origin_serve";
    case CausalEdge::kNetFromOrigin:
      return "net_from_origin";
    case CausalEdge::kProxySend:
      return "proxy_send";
    case CausalEdge::kNetResponse:
      return "net_response";
  }
  return "?";
}

const char* CausalEdgeClass(CausalEdge edge) {
  switch (edge) {
    case CausalEdge::kNetRequest:
    case CausalEdge::kNetToOrigin:
    case CausalEdge::kNetFromOrigin:
    case CausalEdge::kNetResponse:
      return "network";
    case CausalEdge::kCoalesceWait:
    case CausalEdge::kOverflowQueue:
    case CausalEdge::kOriginQueue:
      return "wait";
    case CausalEdge::kCacheWork:
    case CausalEdge::kOriginServe:
    case CausalEdge::kProxySend:
      return "service";
  }
  return "?";
}

const char* RequestClassName(RequestClass cls) {
  switch (cls) {
    case RequestClass::kHit:
      return "hit";
    case RequestClass::kStore:
      return "store";
    case RequestClass::kSplice:
      return "splice";
    case RequestClass::kCoalesced:
      return "coalesced";
  }
  return "?";
}

const char* CausalSpanKindName(CausalSpanKind kind) {
  switch (kind) {
    case CausalSpanKind::kRequest:
      return "request";
    case CausalSpanKind::kProxyJob:
      return "proxy_job";
    case CausalSpanKind::kOriginFetch:
      return "origin_fetch";
    case CausalSpanKind::kOriginServe:
      return "origin_serve";
  }
  return "?";
}

SpanTree AssembleSpanTree(const std::vector<CausalSpan>& spans) {
  SpanTree tree;
  tree.nodes.resize(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    tree.nodes[i].span = i;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const CausalSpan& s = spans[i];
    if (s.parent == 0) {
      if (tree.root == SIZE_MAX) {
        tree.root = i;
      }
      continue;
    }
    size_t parent = SIZE_MAX;
    for (size_t j = 0; j < spans.size(); ++j) {
      if (spans[j].id == s.parent) {
        parent = j;
        break;
      }
    }
    if (parent == SIZE_MAX) {
      // Parent missing (capacity cap or a tier that died): attach to the
      // root so the tree stays renderable, and count the degradation.
      tree.nodes[i].orphan = true;
      ++tree.orphans;
      if (tree.root != SIZE_MAX && tree.root != i) {
        tree.nodes[tree.root].children.push_back(i);
      }
      continue;
    }
    tree.nodes[parent].children.push_back(i);
  }
  // Orphans seen before the root was found still need a home.
  if (tree.root != SIZE_MAX) {
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
      if (tree.nodes[i].orphan) {
        std::vector<size_t>& kids = tree.nodes[tree.root].children;
        if (std::find(kids.begin(), kids.end(), i) == kids.end()) {
          kids.push_back(i);
        }
      }
    }
  }
  return tree;
}

bool ExtractCriticalPath(TimeNs start, TimeNs end, const std::vector<CausalMark>& marks,
                         std::vector<CriticalPathEdge>* out) {
  out->clear();
  if (marks.empty() || marks.front().t < start || marks.back().t != end) {
    return false;
  }
  TimeNs prev = start;
  for (const CausalMark& m : marks) {
    if (m.t < prev) {
      return false;  // Non-monotone chain: a stamp site regressed.
    }
    const TimeNs dur = m.t - prev;
    prev = m.t;
    bool merged = false;
    for (CriticalPathEdge& e : *out) {
      if (e.edge == m.edge) {
        e.duration += dur;  // Repeated edge (re-dispatch): accumulate.
        merged = true;
        break;
      }
    }
    if (!merged) {
      out->push_back(CriticalPathEdge{m.edge, dur});
    }
  }
  return true;
}

CausalTracer::CausalTracer(size_t trace_capacity) : ring_(trace_capacity) {}

uint64_t CausalTracer::BeginTrace(TimeNs start) {
  // A full ring overwrites the oldest trace; if that one was still in
  // flight, the ring counts it dropped, and its late stamps fail the id
  // check (stale). The slot's vectors keep their storage.
  TraceRec& r = ring_.Append();
  r.start = start;
  r.has_class = false;
  r.truncated = false;
  r.spans.clear();
  r.marks.clear();
  r.links.clear();
  return ring_.last_id();
}

CausalTracer::TraceRec* CausalTracer::Live(uint64_t id) {
  if (id == 0) {
    return nullptr;
  }
  TraceRec* r = ring_.Find(id);
  if (r == nullptr) {
    ++stale_;
  }
  return r;
}

uint32_t CausalTracer::StartSpan(uint64_t trace, uint32_t parent, CausalSpanKind kind,
                                 TimeNs start, uint32_t object_id, uint32_t request_id) {
  TraceRec* r = Live(trace);
  if (r == nullptr) {
    return 0;
  }
  if (r->spans.size() >= kMaxSpans) {
    r->truncated = true;
    ++truncated_spans_;
    return 0;
  }
  const uint32_t id = next_span_id_++;
  CausalSpan span;
  span.id = id;
  span.parent = parent;
  span.kind = kind;
  span.start = start;
  span.object_id = object_id;
  span.request_id = request_id;
  r->spans.push_back(span);
  return id;
}

void CausalTracer::EndSpan(uint64_t trace, uint32_t span, TimeNs end) {
  if (span == 0) {
    return;
  }
  TraceRec* r = Live(trace);
  if (r == nullptr) {
    return;
  }
  for (CausalSpan& s : r->spans) {
    if (s.id == span) {
      s.end = end;
      return;
    }
  }
}

void CausalTracer::Mark(uint64_t trace, CausalEdge edge, TimeNs now) {
  TraceRec* r = Live(trace);
  if (r == nullptr) {
    return;
  }
  if (r->marks.size() >= kMaxMarks) {
    r->truncated = true;
    ++truncated_marks_;
    return;
  }
  r->marks.push_back(CausalMark{now, edge});
}

void CausalTracer::SetClass(uint64_t trace, RequestClass cls) {
  TraceRec* r = Live(trace);
  if (r == nullptr) {
    return;
  }
  r->cls = cls;
  r->has_class = true;
}

void CausalTracer::Link(uint64_t from_trace, uint32_t from_span, uint64_t to_trace,
                        uint32_t to_span) {
  TraceRec* r = Live(to_trace);
  if (r == nullptr) {
    return;
  }
  if (r->links.size() >= kMaxLinks) {
    r->truncated = true;
    ++truncated_links_;
    return;
  }
  r->links.push_back(CausalLink{from_trace, from_span, to_span});
}

void CausalTracer::Finish(uint64_t trace, TimeNs end) {
  TraceRec* r = Live(trace);
  if (r == nullptr) {
    return;
  }
  if (r->truncated) {
    ++truncated_;
    ring_.Retire(trace);
    return;
  }
  // The client completing the response IS the final edge.
  r->marks.push_back(CausalMark{end, CausalEdge::kNetResponse});

  std::vector<CriticalPathEdge> path;
  const bool ok = r->has_class && ExtractCriticalPath(r->start, end, r->marks, &path);
  if (!ok) {
    ++critical_path_mismatches_;
    ring_.Retire(trace);
    return;
  }
  const size_t ci = static_cast<size_t>(r->cls);
  for (const CriticalPathEdge& e : path) {
    const size_t idx = Idx(r->cls, e.edge);
    edge_hist_[idx].Add(static_cast<uint64_t>(e.duration));
    edge_stats_[idx].Add(static_cast<double>(e.duration));
  }
  const uint64_t e2e = static_cast<uint64_t>(end - r->start);
  e2e_hist_[ci].Add(e2e);
  e2e_stats_[ci].Add(static_cast<double>(e2e));
  ++completed_;
  MaybeRetainExemplar(trace, *r, end);
  ring_.Retire(trace);
}

void CausalTracer::MaybeRetainExemplar(uint64_t id, const TraceRec& rec, TimeNs end) {
  std::vector<TraceExemplar>& pool = exemplars_[static_cast<size_t>(rec.cls)];
  const TimeNs e2e = end - rec.start;
  if (pool.size() >= kExemplarsPerClass && e2e <= pool.back().end - pool.back().start) {
    return;
  }
  TraceExemplar ex;
  ex.trace_id = id;
  ex.cls = rec.cls;
  ex.start = rec.start;
  ex.end = end;
  ex.spans = rec.spans;
  ex.marks = rec.marks;
  ex.links = rec.links;
  // Insert sorted, worst (largest e2e) first; ties keep the earlier trace.
  auto it = pool.begin();
  while (it != pool.end() && (it->end - it->start) >= e2e) {
    ++it;
  }
  pool.insert(it, std::move(ex));
  if (pool.size() > kExemplarsPerClass) {
    pool.pop_back();
  }
}

void CausalTracer::Abandon(uint64_t trace) {
  // Double-abandon is not an error.
  if (ring_.Retire(trace)) {
    ++abandoned_;
  }
}

void CausalTracer::Clear() {
  // Keeps the ring's storage (if any) for the next run's traces.
  RecordRing<TraceRec> ring = std::move(ring_);
  ring.Clear();
  *this = CausalTracer(ring.capacity());
  ring_ = std::move(ring);
}

CriticalPathReport CausalTracer::Report() const {
  CriticalPathReport report;
  report.completed = completed();
  report.abandoned = abandoned();
  report.dropped = dropped();
  report.stale = stale();
  report.truncated = truncated();
  report.mismatches = critical_path_mismatches();
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const RequestClass cls = static_cast<RequestClass>(c);
    const RunningStats e2e = e2e_stats(cls);
    if (e2e.count() == 0) {
      continue;
    }
    CriticalPathClassSummary cs;
    cs.request_class = RequestClassName(cls);
    cs.count = e2e.count();
    const double e2e_sum = e2e.mean() * static_cast<double>(e2e.count());
    const auto add = [&](ReportRow row) {
      const double sum = row.mean_ns * static_cast<double>(row.count);
      row.share = e2e_sum > 0 ? sum / e2e_sum : 0;
      cs.edges.push_back(std::move(row));
    };
    add(SummarizeRow("e2e", "total", e2e_hist(cls), e2e));
    for (int e = 0; e < kNumCausalEdges; ++e) {
      const CausalEdge edge = static_cast<CausalEdge>(e);
      const RunningStats es = edge_stats(cls, edge);
      if (es.count() == 0) {
        continue;
      }
      add(SummarizeRow(CausalEdgeName(edge), CausalEdgeClass(edge), edge_hist(cls, edge), es));
    }
    report.classes.push_back(std::move(cs));
  }
  return report;
}

const CriticalPathClassSummary* CriticalPathReport::Find(
    const std::string& request_class) const {
  for (const CriticalPathClassSummary& c : classes) {
    if (c.request_class == request_class) {
      return &c;
    }
  }
  return nullptr;
}

std::string CriticalPathReport::ToJson() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "{\"report\":\"critical_path\""
     << ",\"completed\":" << completed << ",\"abandoned\":" << abandoned
     << ",\"dropped\":" << dropped << ",\"stale\":" << stale << ",\"truncated\":" << truncated
     << ",\"mismatches\":" << mismatches << ",\"classes\":[";
  for (size_t c = 0; c < classes.size(); ++c) {
    const CriticalPathClassSummary& cs = classes[c];
    if (c > 0) {
      os << ",";
    }
    os << "{\"request_class\":\"" << cs.request_class << "\",\"count\":" << cs.count
       << ",\"edges\":[";
    for (size_t i = 0; i < cs.edges.size(); ++i) {
      if (i > 0) {
        os << ",";
      }
      WriteRowJson(os, cs.edges[i], "edge", /*with_share=*/true);
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string CriticalPathReport::ToTable() const {
  std::ostringstream os;
  os << "completed=" << completed << " abandoned=" << abandoned << " dropped=" << dropped
     << " stale=" << stale << " truncated=" << truncated << " mismatches=" << mismatches
     << "\n";
  for (const CriticalPathClassSummary& cs : classes) {
    os << "\n[" << cs.request_class << "] n=" << cs.count << "\n";
    os << std::left << std::setw(16) << "edge" << std::setw(9) << "class" << std::right
       << std::setw(9) << "count" << std::setw(11) << "mean_us" << std::setw(10) << "p50_us"
       << std::setw(10) << "p99_us" << std::setw(11) << "max_us" << std::setw(8) << "share"
       << "\n";
    os << std::string(84, '-') << "\n";
    os << std::fixed;
    for (const CriticalPathEdgeSummary& e : cs.edges) {
      os << std::left << std::setw(16) << e.name << std::setw(9) << e.cls << std::right
         << std::setw(9) << e.count << std::setw(11) << std::setprecision(2)
         << e.mean_ns / 1000.0 << std::setw(10)
         << static_cast<double>(e.p50_ns) / 1000.0 << std::setw(10)
         << static_cast<double>(e.p99_ns) / 1000.0 << std::setw(11) << e.max_ns / 1000.0
         << std::setw(8) << std::setprecision(3) << e.share << "\n";
    }
  }
  return os.str();
}

}  // namespace tas
