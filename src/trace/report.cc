#include "src/trace/report.h"

#include <cstdlib>
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

size_t JsonValueAt(const std::string& text, size_t from, size_t to, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos || pos >= to) {
    return std::string::npos;
  }
  return pos + needle.size();
}

double JsonNumberAt(const std::string& text, size_t from, size_t to, const std::string& key,
                    bool* ok) {
  const size_t pos = JsonValueAt(text, from, to, key);
  if (pos == std::string::npos) {
    *ok = false;
    return 0;
  }
  const char* start = text.c_str() + pos;
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) {
    *ok = false;
    return 0;
  }
  return value;
}

uint64_t JsonCountAt(const std::string& text, size_t from, size_t to, const std::string& key,
                     bool* ok) {
  const double value = JsonNumberAt(text, from, to, key, ok);
  // 2^64: the first double a uint64_t cannot hold. NaN fails both tests.
  if (!(value >= 0 && value < 18446744073709551616.0)) {
    *ok = false;
    return 0;
  }
  return static_cast<uint64_t>(value);
}

std::string JsonStringAt(const std::string& text, size_t from, size_t to,
                         const std::string& key, bool* ok) {
  size_t pos = JsonValueAt(text, from, to, key);
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

void ParseRowsJson(const std::string& text, size_t pos, size_t to, const char* name_key,
                   bool with_share, std::vector<ReportRow>* rows, bool* ok) {
  // Row objects are flat (no nested braces): walk { ... } pairs.
  while (*ok) {
    const size_t open = text.find('{', pos);
    const size_t close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos || open >= to) {
      break;
    }
    const size_t bracket = text.find(']', pos);
    if (bracket != std::string::npos && bracket < open) {
      break;  // End of the array.
    }
    ReportRow row;
    row.name = JsonStringAt(text, open, close, name_key, ok);
    row.cls = JsonStringAt(text, open, close, "class", ok);
    row.count = JsonCountAt(text, open, close, "count", ok);
    row.mean_ns = JsonNumberAt(text, open, close, "mean_ns", ok);
    row.max_ns = JsonNumberAt(text, open, close, "max_ns", ok);
    row.p50_ns = JsonCountAt(text, open, close, "p50_ns", ok);
    row.p90_ns = JsonCountAt(text, open, close, "p90_ns", ok);
    row.p99_ns = JsonCountAt(text, open, close, "p99_ns", ok);
    row.p999_ns = JsonCountAt(text, open, close, "p999_ns", ok);
    if (with_share) {
      row.share = JsonNumberAt(text, open, close, "share", ok);
    }
    if (*ok) {
      rows->push_back(std::move(row));
    }
    pos = close + 1;
  }
}

void CheckRows(const std::string& group, const std::vector<ReportRow>& baseline,
               const std::vector<ReportRow>& current, double tolerance, uint64_t min_count,
               std::vector<ReportRegression>* out) {
  const auto check = [&](const ReportRow& base, const char* metric, double base_v,
                         double cur_v) {
    if (base_v > 0 && cur_v > base_v * (1.0 + tolerance)) {
      out->push_back(ReportRegression{group, base.name, metric, base_v, cur_v, cur_v / base_v});
    }
  };
  for (const ReportRow& base : baseline) {
    if (base.count < min_count) {
      continue;  // Too few samples to gate on.
    }
    const ReportRow* cur = FindRow(current, base.name);
    if (cur == nullptr) {
      continue;  // The row vanished: strictly an improvement.
    }
    check(base, "mean_ns", base.mean_ns, cur->mean_ns);
    check(base, "p99_ns", static_cast<double>(base.p99_ns), static_cast<double>(cur->p99_ns));
  }
}

}  // namespace tas
