// Shared pieces of the latency-anatomy and critical-path reports (DESIGN.md
// §10, §12): one summary row type, the function that fills it from a
// histogram, the flat-JSON scanner both report parsers use, and the mean/p99
// row check both regression comparators apply.
#ifndef SRC_TRACE_REPORT_H_
#define SRC_TRACE_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace tas {

// One summary row: a latency stage, a critical-path edge, or a synthetic
// total ("e2e", "queue_wait", "service").
struct ReportRow {
  std::string name;
  std::string cls;  // "queue"/"service"/"network"/"wait", or "total".
  uint64_t count = 0;
  double mean_ns = 0;
  double max_ns = 0;
  // Log-bucketed (power-of-two upper bound) percentiles.
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  // Critical-path rows only: this row's share of its class's summed
  // end-to-end time (0..1).
  double share = 0;
};

ReportRow SummarizeRow(const std::string& name, const std::string& cls,
                       const LogHistogram& hist, const RunningStats& stats);

// The row named `name`, or null.
const ReportRow* FindRow(const std::vector<ReportRow>& rows, const std::string& name);

// Row JSON. `os` must be in fixed notation with precision 1. The row's name
// is written under `name_key` ("stage" or "edge"); `share` only when
// `with_share`.
void WriteRowJson(std::ostream& os, const ReportRow& row, const char* name_key,
                  bool with_share);

// --- Flat-JSON scanner --------------------------------------------------------
// For the exact shapes the reports and bench records emit, not general JSON.
// Each lookup searches text[from, to) for `"key":`; a missing key, a value
// that does not parse, or a string that runs past `to` clears *ok.

// Index just past the colon of `"key":` in text[from, to), or npos.
size_t JsonValueAt(const std::string& text, size_t from, size_t to, const std::string& key);
double JsonNumberAt(const std::string& text, size_t from, size_t to, const std::string& key,
                    bool* ok);
// A count: a number in [0, 2^64). Anything else (negative, out of range,
// nan) clears *ok.
uint64_t JsonCountAt(const std::string& text, size_t from, size_t to, const std::string& key,
                     bool* ok);
std::string JsonStringAt(const std::string& text, size_t from, size_t to,
                         const std::string& key, bool* ok);

// Parses the flat row objects of the array whose contents start at `pos`,
// up to its closing bracket or `to`, appending them to *rows.
void ParseRowsJson(const std::string& text, size_t pos, size_t to, const char* name_key,
                   bool with_share, std::vector<ReportRow>* rows, bool* ok);

// --- Regression check -----------------------------------------------------------

// One comparator violation: `metric` of row `row` (within `group`, e.g. a
// request class; empty for latency stages) regressed past tolerance.
struct ReportRegression {
  std::string group;
  std::string row;
  std::string metric;  // "mean_ns" or "p99_ns" (or a bench record's key).
  double baseline = 0;
  double current = 0;
  double ratio = 0;  // current / baseline.
};

// Flags every baseline row with at least `min_count` samples whose mean or
// p99 in `current` grew beyond baseline * (1 + tolerance). Rows missing from
// `current` and improvements pass.
void CheckRows(const std::string& group, const std::vector<ReportRow>& baseline,
               const std::vector<ReportRow>& current, double tolerance, uint64_t min_count,
               std::vector<ReportRegression>* out);

}  // namespace tas

#endif  // SRC_TRACE_REPORT_H_
