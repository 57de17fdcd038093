#include "src/trace/causal.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "src/trace/flight_recorder.h"
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

CausalTracer::CausalTracer(size_t trace_capacity, size_t exemplars_per_class)
    : exemplars_per_class_(exemplars_per_class) {
  size_t cap = 1;
  while (cap < trace_capacity) {
    cap <<= 1;
  }
  mask_ = cap - 1;
}

uint64_t CausalTracer::BeginTrace(TimeNs start) {
  if (ring_.empty()) {
    ring_.resize(mask_ + 1);
  }
  const uint64_t id = next_trace_id_++;
  TraceRec& r = ring_[id & mask_];
  if (r.id != 0) {
    // Ring wrapped onto a live trace: the oldest in-flight trace is dropped;
    // its late stamps fail the id check (stale).
    ++dropped_;
  }
  r.id = id;
  r.start = start;
  r.has_class = false;
  r.truncated = false;
  r.spans.clear();
  r.marks.clear();
  r.links.clear();
  return id;
}

CausalTracer::TraceRec* CausalTracer::Slot(uint64_t id) {
  if (id == 0) {
    return nullptr;
  }
  if (ring_.empty() || ring_[id & mask_].id != id) {
    ++stale_;
    return nullptr;
  }
  return &ring_[id & mask_];
}

uint32_t CausalTracer::StartSpan(uint64_t trace, uint32_t parent, CausalSpanKind kind,
                                 TimeNs start, uint32_t object_id, uint32_t request_id) {
  TraceRec* r = Slot(trace);
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
  TraceRec* r = Slot(trace);
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
  TraceRec* r = Slot(trace);
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
  TraceRec* r = Slot(trace);
  if (r == nullptr) {
    return;
  }
  r->cls = cls;
  r->has_class = true;
}

void CausalTracer::Link(uint64_t from_trace, uint32_t from_span, uint64_t to_trace,
                        uint32_t to_span) {
  TraceRec* r = Slot(to_trace);
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
  TraceRec* r = Slot(trace);
  if (r == nullptr) {
    return;
  }
  if (r->truncated) {
    ++truncated_;
    r->id = 0;
    return;
  }
  // The client completing the response IS the final edge.
  r->marks.push_back(CausalMark{end, CausalEdge::kNetResponse});

  std::vector<CriticalPathEdge> path;
  const bool ok = r->has_class && ExtractCriticalPath(r->start, end, r->marks, &path);
  if (!ok) {
    ++critical_path_mismatches_;
    r->id = 0;
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
  MaybeRetainExemplar(*r, end);
  if (recorder_ != nullptr) {
    recorder_->RecordCausal(end, r->id, static_cast<uint8_t>(r->cls), e2e);
  }
  r->id = 0;
}

void CausalTracer::MaybeRetainExemplar(const TraceRec& rec, TimeNs end) {
  if (exemplars_per_class_ == 0) {
    return;
  }
  std::vector<TraceExemplar>& pool = exemplars_[static_cast<size_t>(rec.cls)];
  const TimeNs e2e = end - rec.start;
  if (pool.size() >= exemplars_per_class_ && e2e <= pool.back().end - pool.back().start) {
    return;
  }
  TraceExemplar ex;
  ex.trace_id = rec.id;
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
  if (pool.size() > exemplars_per_class_) {
    pool.pop_back();
  }
}

void CausalTracer::Abandon(uint64_t trace) {
  if (trace == 0) {
    return;
  }
  if (ring_.empty() || ring_[trace & mask_].id != trace) {
    return;  // Already gone; double-abandon is not an error.
  }
  ring_[trace & mask_].id = 0;
  ++abandoned_;
}

void CausalTracer::Clear() {
  const size_t capacity = mask_ + 1;
  *this = CausalTracer(capacity, exemplars_per_class_);
}

namespace {

CriticalPathEdgeSummary SummarizeEdge(const std::string& name, const std::string& cls,
                                      const LogHistogram& hist, const RunningStats& stats,
                                      double e2e_sum) {
  CriticalPathEdgeSummary s;
  s.edge = name;
  s.cls = cls;
  s.count = stats.count();
  s.mean_ns = stats.mean();
  s.max_ns = stats.max();
  s.p50_ns = hist.ApproxPercentile(50);
  s.p90_ns = hist.ApproxPercentile(90);
  s.p99_ns = hist.ApproxPercentile(99);
  s.p999_ns = hist.ApproxPercentile(99.9);
  const double sum = stats.mean() * static_cast<double>(stats.count());
  s.share = e2e_sum > 0 ? sum / e2e_sum : 0;
  return s;
}

}  // namespace

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
    cs.edges.push_back(SummarizeEdge("e2e", "total", e2e_hist(cls), e2e, e2e_sum));
    for (int e = 0; e < kNumCausalEdges; ++e) {
      const CausalEdge edge = static_cast<CausalEdge>(e);
      const RunningStats es = edge_stats(cls, edge);
      if (es.count() == 0) {
        continue;
      }
      cs.edges.push_back(SummarizeEdge(CausalEdgeName(edge), CausalEdgeClass(edge),
                                       edge_hist(cls, edge), es, e2e_sum));
    }
    report.classes.push_back(std::move(cs));
  }
  return report;
}

const CriticalPathEdgeSummary* CriticalPathClassSummary::Find(const std::string& edge) const {
  for (const CriticalPathEdgeSummary& e : edges) {
    if (e.edge == edge) {
      return &e;
    }
  }
  return nullptr;
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
      const CriticalPathEdgeSummary& e = cs.edges[i];
      if (i > 0) {
        os << ",";
      }
      os << "{\"edge\":\"" << e.edge << "\",\"class\":\"" << e.cls << "\""
         << ",\"count\":" << e.count << ",\"mean_ns\":" << e.mean_ns
         << ",\"max_ns\":" << e.max_ns << ",\"p50_ns\":" << e.p50_ns
         << ",\"p90_ns\":" << e.p90_ns << ",\"p99_ns\":" << e.p99_ns
         << ",\"p999_ns\":" << e.p999_ns << ",\"share\":" << std::setprecision(4) << e.share
         << std::setprecision(1) << "}";
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
      os << std::left << std::setw(16) << e.edge << std::setw(9) << e.cls << std::right
         << std::setw(9) << e.count << std::setw(11) << std::setprecision(2)
         << e.mean_ns / 1000.0 << std::setw(10)
         << static_cast<double>(e.p50_ns) / 1000.0 << std::setw(10)
         << static_cast<double>(e.p99_ns) / 1000.0 << std::setw(11) << e.max_ns / 1000.0
         << std::setw(8) << std::setprecision(3) << e.share << "\n";
    }
  }
  return os.str();
}

namespace {

// Minimal scanner for the exact shape ToJson emits (latency.cc idiom, with
// one nesting level: class objects contain flat edge objects).
size_t FindValue(const std::string& text, size_t from, size_t to, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos || pos >= to) {
    return std::string::npos;
  }
  return pos + needle.size();
}

double NumberAt(const std::string& text, size_t from, size_t to, const std::string& key,
                bool* ok) {
  const size_t pos = FindValue(text, from, to, key);
  if (pos == std::string::npos) {
    *ok = false;
    return 0;
  }
  return std::strtod(text.c_str() + pos, nullptr);
}

std::string StringAt(const std::string& text, size_t from, size_t to,
                     const std::string& key, bool* ok) {
  size_t pos = FindValue(text, from, to, key);
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    *ok = false;
    return "";
  }
  ++pos;
  const size_t end = text.find('"', pos);
  if (end == std::string::npos || end > to) {
    *ok = false;
    return "";
  }
  return text.substr(pos, end - pos);
}

}  // namespace

CriticalPathReport ParseCriticalPathReportJson(const std::string& json, bool* ok) {
  bool good = true;
  CriticalPathReport report;
  const size_t classes_pos = json.find("\"classes\":[");
  if (classes_pos == std::string::npos) {
    if (ok != nullptr) {
      *ok = false;
    }
    return CriticalPathReport{};
  }
  report.completed =
      static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "completed", &good));
  report.abandoned =
      static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "abandoned", &good));
  report.dropped = static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "dropped", &good));
  report.stale = static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "stale", &good));
  report.truncated =
      static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "truncated", &good));
  report.mismatches =
      static_cast<uint64_t>(NumberAt(json, 0, classes_pos, "mismatches", &good));

  // Class blocks are delimited by their "request_class" keys; edge objects
  // inside each block are flat.
  size_t class_pos = json.find("\"request_class\":", classes_pos);
  while (good && class_pos != std::string::npos) {
    const size_t next_class = json.find("\"request_class\":", class_pos + 1);
    const size_t block_end = next_class != std::string::npos ? next_class : json.size();
    CriticalPathClassSummary cs;
    cs.request_class = StringAt(json, class_pos, block_end, "request_class", &good);
    cs.count = static_cast<uint64_t>(NumberAt(json, class_pos, block_end, "count", &good));
    const size_t edges_pos = FindValue(json, class_pos, block_end, "edges");
    if (edges_pos == std::string::npos) {
      good = false;
      break;
    }
    size_t pos = edges_pos;
    while (good) {
      const size_t open = json.find('{', pos);
      const size_t close = json.find('}', open);
      if (open == std::string::npos || close == std::string::npos || open >= block_end) {
        break;
      }
      const size_t bracket = json.find(']', pos);
      if (bracket != std::string::npos && bracket < open) {
        break;  // End of this class's edges array.
      }
      CriticalPathEdgeSummary e;
      e.edge = StringAt(json, open, close, "edge", &good);
      e.cls = StringAt(json, open, close, "class", &good);
      e.count = static_cast<uint64_t>(NumberAt(json, open, close, "count", &good));
      e.mean_ns = NumberAt(json, open, close, "mean_ns", &good);
      e.max_ns = NumberAt(json, open, close, "max_ns", &good);
      e.p50_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p50_ns", &good));
      e.p90_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p90_ns", &good));
      e.p99_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p99_ns", &good));
      e.p999_ns = static_cast<uint64_t>(NumberAt(json, open, close, "p999_ns", &good));
      e.share = NumberAt(json, open, close, "share", &good);
      if (good) {
        cs.edges.push_back(std::move(e));
      }
      pos = close + 1;
    }
    if (good && !cs.edges.empty()) {
      report.classes.push_back(std::move(cs));
    } else if (good) {
      good = false;
    }
    class_pos = next_class;
  }
  if (report.classes.empty()) {
    good = false;
  }
  if (ok != nullptr) {
    *ok = good;
  }
  return good ? report : CriticalPathReport{};
}

std::vector<CriticalPathRegression> CompareCriticalPathReports(
    const CriticalPathReport& baseline, const CriticalPathReport& current, double tolerance,
    uint64_t min_count) {
  std::vector<CriticalPathRegression> violations;
  for (const CriticalPathClassSummary& base_cls : baseline.classes) {
    if (base_cls.count < min_count) {
      continue;  // Too few samples to gate on.
    }
    const CriticalPathClassSummary* cur_cls = current.Find(base_cls.request_class);
    if (cur_cls == nullptr) {
      violations.push_back(CriticalPathRegression{base_cls.request_class, "e2e", "count",
                                                  static_cast<double>(base_cls.count), 0, 0});
      continue;
    }
    const auto check = [&](const CriticalPathEdgeSummary& base, const char* metric,
                           double base_v, double cur_v) {
      if (base_v <= 0) {
        return;
      }
      if (cur_v > base_v * (1.0 + tolerance)) {
        violations.push_back(CriticalPathRegression{base_cls.request_class, base.edge, metric,
                                                    base_v, cur_v, cur_v / base_v});
      }
    };
    for (const CriticalPathEdgeSummary& base : base_cls.edges) {
      if (base.count < min_count) {
        continue;
      }
      const CriticalPathEdgeSummary* cur = cur_cls->Find(base.edge);
      if (cur == nullptr) {
        continue;  // Edge vanished from the path — strictly an improvement.
      }
      check(base, "mean_ns", base.mean_ns, cur->mean_ns);
      check(base, "p99_ns", static_cast<double>(base.p99_ns),
            static_cast<double>(cur->p99_ns));
    }
  }
  return violations;
}

}  // namespace tas
