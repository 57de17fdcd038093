// Shared pieces of the latency-anatomy and critical-path reports (DESIGN.md
// §10, §12): one summary row type, the function that fills it from a
// histogram, and its JSON form.
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

}  // namespace tas

#endif  // SRC_TRACE_REPORT_H_
