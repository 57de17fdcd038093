// The checked-in baselines (bench/baselines/*.json) and the gate that guards
// them: bench_gate's exit status on identical, perturbed, incomplete and
// foreign records, and a bounded random-bytes loop over the report parsers
// fed the baselines (truncations and byte flips must parse or be rejected,
// never crash).
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "src/trace/causal.h"
#include "src/trace/latency.h"
#include "src/trace/report.h"

namespace tas {
namespace {

const char* const kBaselines[] = {
    "perf_smoke_latency.json",
    "proxy_critical_path.json",
    "million_flow_churn.json",
};

std::string BaselinePath(const std::string& name) {
  return std::string(TAS_SOURCE_DIR) + "/bench/baselines/" + name;
}

std::string ReadText(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "bench_gate_test." + name;
  std::ofstream(path) << text;
  return path;
}

// Runs bench_gate and returns its exit status; *output gets its stdout and
// stderr.
int RunGate(const std::string& baseline, const std::string& current, std::string* output) {
  const std::string log = ::testing::TempDir() + "bench_gate_test.log";
  const std::string cmd = std::string(TAS_BENCH_GATE) + " '" + baseline + "' '" + current +
                          "' > '" + log + "' 2>&1";
  const int status = std::system(cmd.c_str());
  *output = ReadText(log);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Raises the number after the first `"key":` past `anchor` by `factor`,
// rounding up in the value's last printed decimal so the result is strictly
// above value * factor.
std::string Raise(const std::string& text, const std::string& anchor, const std::string& key,
                  double factor) {
  const size_t at = text.find(anchor);
  EXPECT_NE(at, std::string::npos) << anchor;
  const size_t pos = text.find("\"" + key + "\":", at) + key.size() + 3;
  size_t end = pos;
  while (end < text.size() && (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
                               text[end] == '.')) {
    ++end;
  }
  const std::string token = text.substr(pos, end - pos);
  const size_t dot = token.find('.');
  const int decimals = dot == std::string::npos ? 0 : static_cast<int>(token.size() - dot - 1);
  const double unit = std::pow(10.0, -decimals);
  const double value = std::strtod(token.c_str(), nullptr);
  const double raised = (std::floor(value * factor / unit) + 1) * unit;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, raised);
  return text.substr(0, pos) + buf + text.substr(end);
}

TEST(BenchGateTest, EveryBaselinePassesAgainstItself) {
  for (const char* name : kBaselines) {
    std::string out;
    EXPECT_EQ(RunGate(BaselinePath(name), BaselinePath(name), &out), 0) << name << "\n" << out;
  }
}

TEST(BenchGateTest, ThirtyPercentRegressionFails) {
  struct Case {
    const char* baseline;
    const char* anchor;  // Row (or record) holding the gated value.
    const char* key;
  };
  const Case cases[] = {
      {"perf_smoke_latency.json", "\"stage\":\"ctx_queue\"", "p99_ns"},
      {"proxy_critical_path.json", "\"edge\":\"net_request\"", "mean_ns"},
      {"million_flow_churn.json", "{\"benchmark\"", "events_per_packet"},
  };
  for (const Case& c : cases) {
    const std::string base = ReadText(BaselinePath(c.baseline));
    const std::string raised = Raise(base, c.anchor, c.key, 1.30);
    ASSERT_NE(raised, base) << c.baseline;
    std::string out;
    EXPECT_EQ(RunGate(BaselinePath(c.baseline), WriteTemp(c.baseline, raised), &out), 1)
        << c.baseline << "\n" << out;
    EXPECT_NE(out.find(std::string(c.key)), std::string::npos) << out;
  }
}

TEST(BenchGateTest, MissingRequestClassFails) {
  const std::string base = ReadText(BaselinePath("proxy_critical_path.json"));
  const size_t from = base.find("{\"request_class\":\"store\"");
  const size_t to = base.find("{\"request_class\":\"splice\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  const std::string current = base.substr(0, from) + base.substr(to);
  std::string out;
  EXPECT_EQ(RunGate(BaselinePath("proxy_critical_path.json"),
                    WriteTemp("no_store.json", current), &out),
            1)
      << out;
  EXPECT_NE(out.find("store"), std::string::npos) << out;
}

TEST(BenchGateTest, NonReportFileIsAnError) {
  const std::string junk = WriteTemp("junk.json", "{\"hello\":1}\n");
  for (const char* name : kBaselines) {
    std::string out;
    EXPECT_EQ(RunGate(junk, BaselinePath(name), &out), 2) << out;
    EXPECT_EQ(RunGate(BaselinePath(name), junk, &out), 2) << out;
  }
}

// --- Parser robustness ----------------------------------------------------------

// Truncates and/or flips bytes of `text`; flips favour the characters the
// scanner keys on.
std::string Mutate(const std::string& text, std::mt19937_64& rng) {
  static const char kPicks[] = "{}[]\":,.-+e0123456789 x";
  std::string out = text;
  if (rng() % 2 == 0) {
    out.resize(rng() % (out.size() + 1));
  }
  const int flips = static_cast<int>(rng() % 6);
  for (int i = 0; i < flips && !out.empty(); ++i) {
    const size_t at = rng() % out.size();
    out[at] = rng() % 2 == 0 ? kPicks[rng() % (sizeof(kPicks) - 1)]
                             : static_cast<char>(rng() % 256);
  }
  return out;
}

TEST(ReportParserTest, RandomBytesParseOrReportMalformed) {
  const std::string latency = ReadText(BaselinePath("perf_smoke_latency.json"));
  const std::string critpath = ReadText(BaselinePath("proxy_critical_path.json"));
  const std::string million = ReadText(BaselinePath("million_flow_churn.json"));
  bool ok = false;
  ParseLatencyReportJson(latency, &ok);
  ASSERT_TRUE(ok);
  ParseCriticalPathReportJson(critpath, &ok);
  ASSERT_TRUE(ok);

  std::mt19937_64 rng(20191);
  int rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const LatencyReport lat = ParseLatencyReportJson(Mutate(latency, rng), &ok);
    EXPECT_EQ(ok, !lat.stages.empty());
    rejected += ok ? 0 : 1;

    const CriticalPathReport cp = ParseCriticalPathReportJson(Mutate(critpath, rng), &ok);
    EXPECT_EQ(ok, !cp.classes.empty());
    for (const CriticalPathClassSummary& cls : cp.classes) {
      EXPECT_FALSE(cls.edges.empty());
    }

    const std::string record = Mutate(million, rng);
    ok = true;
    JsonNumberAt(record, 0, record.size(), "events_per_packet", &ok);
    JsonCountAt(record, 0, record.size(), "probe_p99", &ok);
    JsonStringAt(record, 0, record.size(), "benchmark", &ok);
  }
  EXPECT_GT(rejected, 0);  // The loop does reach the malformed paths.
}

}  // namespace
}  // namespace tas
