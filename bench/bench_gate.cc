// bench_gate: the CI regression gate for every checked-in baseline.
//
// Usage: bench_gate <baseline> <current>
//
// Each file holds one bench record. The gate reads the format from the tag
// the record carries and applies that format's rule:
//
//   "report":"latency"         A LatencyReport (perf_smoke's PERF_LATENCY_JSON
//                              line, or a Tracer's <prefix>.latency.json).
//                              Fails when a stage's mean or p99 grew more
//                              than 25% (CompareLatencyReports).
//   "report":"critical_path"   A CriticalPathReport (proxy_cycles'
//                              PROXY_CRITPATH_JSON line, or a Tracer's
//                              <prefix>.critical_path.json). Fails when a
//                              (request class, edge) row's mean or p99 grew
//                              more than 25%, or a request class vanished
//                              (CompareCriticalPathReports).
//   "benchmark":"million_flow_churn"
//                              million_flow_churn's MILLION_FLOW_JSON line.
//                              Fails when the flow-table probe p99 grew past
//                              1.5x (a log-bucket bound: a regression is a
//                              bucket jump) or events per packet past 1.30x.
//
// Report rows with fewer than 50 baseline samples are too noisy to gate and
// are skipped; improvements always pass. A file may also be a bench's whole
// stdout: the gate reads the first line carrying the baseline's tag.
//
// Exit status: 0 pass, 1 regression, 2 unreadable file or unknown format.
// Every gated value is simulated time or a structural count, so an unchanged
// workload reproduces its baseline exactly; re-record a baseline deliberately
// when a change moves costs (EXPERIMENTS.md).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/trace/causal.h"
#include "src/trace/latency.h"
#include "src/trace/report.h"

namespace {

constexpr double kReportTolerance = 0.25;
constexpr uint64_t kReportMinCount = 50;
constexpr double kProbeP99Factor = 1.5;
constexpr double kEventsPerPacketFactor = 1.30;

bool ReadFile(const char* path, std::string* out) {
  std::ifstream is(path);
  if (!is) {
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

// The record (from its tag to the end of its line) in `text` carrying `tag`,
// or "" if there is none.
std::string FindRecord(const std::string& text, const std::string& tag) {
  const size_t pos = text.find(tag);
  if (pos == std::string::npos) {
    return "";
  }
  const size_t end = text.find('\n', pos);
  return text.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
}

bool CompareLatency(const std::string& base_json, const std::string& cur_json,
                    std::vector<tas::ReportRegression>* out) {
  bool base_ok = false;
  bool cur_ok = false;
  const tas::LatencyReport base = tas::ParseLatencyReportJson(base_json, &base_ok);
  const tas::LatencyReport cur = tas::ParseLatencyReportJson(cur_json, &cur_ok);
  if (!base_ok || !cur_ok) {
    return false;
  }
  std::cout << "bench_gate: latency report, " << base.stages.size() << " baseline stages, "
            << cur.stages.size() << " current stages\n"
            << cur.ToTable();
  *out = tas::CompareLatencyReports(base, cur, kReportTolerance, kReportMinCount);
  return true;
}

bool CompareCriticalPath(const std::string& base_json, const std::string& cur_json,
                         std::vector<tas::ReportRegression>* out) {
  bool base_ok = false;
  bool cur_ok = false;
  const tas::CriticalPathReport base = tas::ParseCriticalPathReportJson(base_json, &base_ok);
  const tas::CriticalPathReport cur = tas::ParseCriticalPathReportJson(cur_json, &cur_ok);
  if (!base_ok || !cur_ok) {
    return false;
  }
  std::cout << "bench_gate: critical-path report, " << base.classes.size()
            << " baseline classes, " << cur.classes.size() << " current classes\n"
            << cur.ToTable();
  *out = tas::CompareCriticalPathReports(base, cur, kReportTolerance, kReportMinCount);
  return true;
}

bool CompareMillionFlow(const std::string& base_json, const std::string& cur_json,
                        std::vector<tas::ReportRegression>* out) {
  bool ok = true;
  const auto check = [&](const char* key, double factor) {
    const double base = tas::JsonNumberAt(base_json, 0, base_json.size(), key, &ok);
    const double cur = tas::JsonNumberAt(cur_json, 0, cur_json.size(), key, &ok);
    std::printf("bench_gate: million_flow_churn %s: baseline %g, current %g, limit %.2fx\n",
                key, base, cur, factor);
    if (base > 0 && cur > base * factor + 1e-9) {
      out->push_back(tas::ReportRegression{"", "million_flow_churn", key, base, cur, cur / base});
    }
  };
  check("probe_p99", kProbeP99Factor);
  check("events_per_packet", kEventsPerPacketFactor);
  return ok;
}

struct Format {
  const char* name;
  const char* tag;  // How a record of this format starts.
  bool (*compare)(const std::string& base, const std::string& cur,
                  std::vector<tas::ReportRegression>* out);
};

const Format kFormats[] = {
    {"latency report", "{\"report\":\"latency\"", CompareLatency},
    {"critical-path report", "{\"report\":\"critical_path\"", CompareCriticalPath},
    {"million_flow_churn record", "{\"benchmark\":\"million_flow_churn\"",
     CompareMillionFlow},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: bench_gate <baseline> <current>\n";
    return 2;
  }
  std::string base_text;
  std::string cur_text;
  if (!ReadFile(argv[1], &base_text) || !ReadFile(argv[2], &cur_text)) {
    std::cerr << "bench_gate: cannot read " << argv[1] << " or " << argv[2] << "\n";
    return 2;
  }

  // The baseline's first tagged record picks the format.
  const Format* format = nullptr;
  size_t first = std::string::npos;
  for (const Format& f : kFormats) {
    const size_t pos = base_text.find(f.tag);
    if (pos < first) {
      first = pos;
      format = &f;
    }
  }
  if (format == nullptr) {
    std::cerr << "bench_gate: " << argv[1] << " carries no known report or benchmark tag\n";
    return 2;
  }

  std::vector<tas::ReportRegression> regressions;
  if (!format->compare(FindRecord(base_text, format->tag), FindRecord(cur_text, format->tag),
                       &regressions)) {
    std::cerr << "bench_gate: " << argv[1] << " and " << argv[2] << " do not both hold a "
              << "well-formed " << format->name << "\n";
    return 2;
  }
  if (regressions.empty()) {
    std::cout << "bench_gate: PASS (nothing regressed beyond its limit)\n";
    return 0;
  }
  for (const tas::ReportRegression& r : regressions) {
    std::printf("bench_gate: REGRESSION %s%s%s %s: baseline %g -> current %g (%.2fx)\n",
                r.group.c_str(), r.group.empty() ? "" : "/", r.row.c_str(), r.metric.c_str(),
                r.baseline, r.current, r.ratio);
  }
  std::cout << "bench_gate: FAIL (" << regressions.size() << " regression"
            << (regressions.size() == 1 ? "" : "s") << ")\n";
  return 1;
}
