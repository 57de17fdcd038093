#include "src/trace/report.h"

#include <iomanip>

namespace tas {

ReportRow SummarizeRow(const std::string& name, const std::string& cls,
                       const LogHistogram& hist, const RunningStats& stats) {
  ReportRow row;
  row.name = name;
  row.cls = cls;
  row.count = stats.count();
  row.mean_ns = stats.mean();
  row.max_ns = stats.max();
  row.p50_ns = hist.ApproxPercentile(50);
  row.p90_ns = hist.ApproxPercentile(90);
  row.p99_ns = hist.ApproxPercentile(99);
  row.p999_ns = hist.ApproxPercentile(99.9);
  return row;
}

const ReportRow* FindRow(const std::vector<ReportRow>& rows, const std::string& name) {
  for (const ReportRow& row : rows) {
    if (row.name == name) {
      return &row;
    }
  }
  return nullptr;
}

void WriteRowJson(std::ostream& os, const ReportRow& row, const char* name_key,
                  bool with_share) {
  os << "{\"" << name_key << "\":\"" << row.name << "\",\"class\":\"" << row.cls << "\""
     << ",\"count\":" << row.count << ",\"mean_ns\":" << row.mean_ns
     << ",\"max_ns\":" << row.max_ns << ",\"p50_ns\":" << row.p50_ns
     << ",\"p90_ns\":" << row.p90_ns << ",\"p99_ns\":" << row.p99_ns
     << ",\"p999_ns\":" << row.p999_ns;
  if (with_share) {
    os << ",\"share\":" << std::setprecision(4) << row.share << std::setprecision(1);
  }
  os << "}";
}

}  // namespace tas
