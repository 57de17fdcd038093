#include "src/trace/metric_registry.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "src/util/logging.h"

namespace tas {

const char* MetricKindName(MetricKind kind) {
  return kind == MetricKind::kCounter ? "counter" : "gauge";
}

void MetricRegistry::Add(std::string name, MetricKind kind, std::function<double()> read) {
  TAS_CHECK(!name.empty());
  TAS_CHECK(!Has(name)) << "duplicate metric " << name;
  entries_.push_back(Entry{std::move(name), std::move(read), kind});
}

void MetricRegistry::AddCounter(std::string name, const uint64_t* value) {
  TAS_CHECK(value != nullptr);
  Add(std::move(name), MetricKind::kCounter, [value] { return static_cast<double>(*value); });
}

void MetricRegistry::AddGauge(std::string name, std::function<double()> fn) {
  TAS_CHECK(fn != nullptr);
  Add(std::move(name), MetricKind::kGauge, std::move(fn));
}

bool MetricRegistry::Has(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return true;
    }
  }
  return false;
}

bool MetricRegistry::ReadValue(const std::string& name, double* out) const {
  for (const Entry& e : entries_) {
    if (e.name != name) {
      continue;
    }
    *out = e.read();
    return true;
  }
  return false;
}

MetricSnapshot MetricRegistry::Snapshot() const {
  MetricSnapshot out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back(MetricSample{e.name, e.kind, e.read()});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return out;
}

MetricSnapshot MetricRegistry::Diff(const MetricSnapshot& before,
                                    const MetricSnapshot& after) {
  MetricSnapshot out;
  out.reserve(after.size());
  size_t bi = 0;
  for (const MetricSample& a : after) {
    while (bi < before.size() && before[bi].name < a.name) {
      ++bi;
    }
    MetricSample s = a;
    if (a.kind == MetricKind::kCounter && bi < before.size() && before[bi].name == a.name) {
      s.value = a.value - before[bi].value;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricRegistry::WriteJsonl(const MetricSnapshot& snapshot, std::ostream& os) {
  for (const MetricSample& s : snapshot) {
    os << "{\"name\":";
    JsonEscape(s.name, os);
    os << ",\"kind\":\"" << MetricKindName(s.kind) << "\",\"value\":" << JsonNumber(s.value)
       << "}\n";
  }
}

void JsonEscape(const std::string& s, std::ostream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string JsonNumber(double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  } else {
    // JSON has no inf/nan; clamp to null-adjacent sentinel 0 rather than emit
    // an invalid document.
    std::snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

}  // namespace tas
