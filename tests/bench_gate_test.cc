// The bench records (bench/bench_record.h), their checked-in baselines
// (bench/baselines/*.json) and the gate that guards them: each gated bench,
// run from the build tree, matches its baseline's det exactly (all but
// fig14_proportionality, whose ~7 s run CI's Release job gates, while here
// its baseline is held to the claims it records); bench_gate's
// exit status on identical, perturbed, wall-only-changed, mismatched and
// malformed records; and a bounded random-bytes loop over the record reader
// fed the baselines (truncations and byte flips must read or be rejected,
// never crash).
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "bench/bench_record.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace bench {
namespace {

const char* const kBaselines[] = {
    "perf_smoke.json",         "perf_smoke_latency.json",    "proxy_cycles.json",
    "million_flow_churn.json", "watchdog_chaos.json",        "fig5_shortlived.json",
    "table1_cycles.json",      "fig14_proportionality.json", "fig12_cluster.json",
    "fig11_cc_interval.json",
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

// Runs `command` with stdout and stderr sent to `log`; returns its exit
// status.
int Shell(const std::string& command, const std::string& log) {
  const int status = std::system((command + " > '" + log + "' 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Runs bench_gate and returns its exit status; *output gets its stdout and
// stderr.
int RunGate(const std::string& baseline, const std::string& current, std::string* output) {
  const std::string log = ::testing::TempDir() + "bench_gate_test.log";
  const int status =
      Shell(std::string(TAS_BENCH_GATE) + " '" + baseline + "' '" + current + "'", log);
  *output = ReadText(log);
  return status;
}

// --- Every gated bench against its baseline ----------------------------------

// Runs a bench from the build tree with the harness's environment toggles
// cleared, then gates its stdout against `baseline`.
void GateBench(const std::string& baseline, const std::string& env, const std::string& args) {
  const std::string name = baseline.substr(0, baseline.find('.'));
  const std::string out = ::testing::TempDir() + "bench_gate_test." + name + ".out";
  const std::string binary = name == "perf_smoke_latency" ? "perf_smoke" : name;
  const std::string command = "env -u TAS_SCALE -u TAS_LATENCY -u TAS_WATCHDOG_BENCH " + env +
                              " " + TAS_BENCH_DIR + "/" + binary + " " + args;
  ASSERT_EQ(Shell(command, out), 0) << command << "\n" << ReadText(out);
  std::string gate;
  EXPECT_EQ(RunGate(BaselinePath(baseline), out, &gate), 0) << gate;
}

TEST(BenchRecordGateTest, PerfSmokeLatency) {
  GateBench("perf_smoke_latency.json", "TAS_LATENCY=1", "");
}

TEST(BenchRecordGateTest, ProxyCycles) { GateBench("proxy_cycles.json", "", ""); }

TEST(BenchRecordGateTest, MillionFlowChurn) { GateBench("million_flow_churn.json", "", ""); }

TEST(BenchRecordGateTest, Fig5ShortLived) { GateBench("fig5_shortlived.json", "", ""); }

TEST(BenchRecordGateTest, Table1Cycles) { GateBench("table1_cycles.json", "", ""); }

TEST(BenchRecordGateTest, Fig12Cluster) { GateBench("fig12_cluster.json", "", ""); }

TEST(BenchRecordGateTest, Fig11CcInterval) { GateBench("fig11_cc_interval.json", "", ""); }

TEST(BenchRecordGateTest, WatchdogChaos) {
  const std::string prefix = ::testing::TempDir() + "bench_gate_test.watchdog";
  GateBench("watchdog_chaos.json", "", "'" + prefix + "'");
  Shell("rm -f '" + prefix + "'*", "/dev/null");
}

// The paper's Fig 5 claim on the gated record (which Fig5ShortLived holds
// the bench to): at 1 and 2 messages per connection, connection set-up
// dominates and TAS trails Linux; from 4 on, TAS leads.
TEST(BenchRecordGateTest, Fig5RecordHoldsThePapersCrossover) {
  JsonNode record;
  std::string error;
  ASSERT_TRUE(ReadBenchRecord(ReadText(BaselinePath("fig5_shortlived.json")), &record, &error))
      << error;
  const JsonNode* points = record.Find("det")->Find("points");
  ASSERT_NE(points, nullptr);
  std::map<int, double> tas_over_linux;
  for (const JsonNode& point : points->members) {
    const JsonNode* msgs = point.Find("msgs_per_conn");
    const JsonNode* ratio = point.Find("tas_over_linux");
    ASSERT_TRUE(msgs != nullptr && ratio != nullptr) << point.text;
    tas_over_linux[std::stoi(msgs->text)] = std::stod(ratio->text);
  }
  for (const int msgs : {1, 2, 4, 16}) {
    ASSERT_EQ(tas_over_linux.count(msgs), 1u) << msgs << " msgs/conn";
  }
  EXPECT_LT(tas_over_linux[1], 1.0);
  EXPECT_LT(tas_over_linux[2], 1.0);
  EXPECT_GE(tas_over_linux[4], 1.0);
  EXPECT_GE(tas_over_linux[16], 1.0);
}

// The paper's Table 1 claim on the gated record (which Table1Cycles holds
// the bench to): per request, TAS spends fewer cycles than IX, and IX far
// fewer than Linux.
TEST(BenchRecordGateTest, Table1RecordOrdersTheStacks) {
  JsonNode record;
  std::string error;
  ASSERT_TRUE(ReadBenchRecord(ReadText(BaselinePath("table1_cycles.json")), &record, &error))
      << error;
  const JsonNode* det = record.Find("det");
  std::map<std::string, double> total;
  for (const char* stack : {"linux", "ix", "tas"}) {
    const JsonNode* row = det->Find(stack);
    ASSERT_NE(row, nullptr) << stack;
    const JsonNode* kc = row->Find("total");
    ASSERT_NE(kc, nullptr) << stack;
    total[stack] = std::stod(kc->text);
  }
  EXPECT_LT(total["tas"], total["ix"]);
  EXPECT_LT(total["ix"] * 4, total["linux"]);
}

// The Fig 14 record (which CI's Release job holds the bench to): every
// joining client's 256 connections are established within 20 ms of its
// start, the five-client row carries at least 12 mOps of the ~12.5 offered,
// and the slow-path core never booked more than one set-up step
// (SlowPath::kSetupStepCycles, 4,761 ns at 2.1 GHz) ahead of the clock.
TEST(BenchRecordGateTest, Fig14RecordSetsUpEveryJoiningClient) {
  JsonNode record;
  std::string error;
  ASSERT_TRUE(ReadBenchRecord(ReadText(BaselinePath("fig14_proportionality.json")), &record,
                              &error))
      << error;
  const JsonNode* det = record.Find("det");
  const JsonNode* rows = det->Find("rows");
  ASSERT_NE(rows, nullptr);
  int joins = 0;
  double five_client_mops = 0;
  for (const JsonNode& row : rows->members) {
    const JsonNode* established = row.Find("joined_established");
    const JsonNode* all_up = row.Find("joined_all_up_ms");
    const JsonNode* clients = row.Find("clients");
    const JsonNode* mops = row.Find("mops");
    ASSERT_TRUE(established && all_up && clients && mops) << row.text;
    if (std::stoi(established->text) < 0) {
      continue;  // A removal step.
    }
    ++joins;
    EXPECT_EQ(std::stoi(established->text), 256) << row.text;
    EXPECT_GE(std::stoi(all_up->text), 0) << row.text;
    EXPECT_LE(std::stoi(all_up->text), 20) << row.text;
    if (std::stoi(clients->text) == 5) {
      five_client_mops = std::stod(mops->text);
    }
  }
  EXPECT_EQ(joins, 5);
  EXPECT_GE(five_client_mops, 12.0);
  const JsonNode* max_ahead = det->Find("slowpath_max_ahead_ns");
  ASSERT_NE(max_ahead, nullptr);
  EXPECT_LE(std::stoll(max_ahead->text), CyclesToNs(SlowPath::kSetupStepCycles, kCoreGhz));
}

// --- The gate's rule ----------------------------------------------------------

TEST(BenchGateTest, EveryBaselinePassesAgainstItself) {
  for (const char* name : kBaselines) {
    std::string out;
    EXPECT_EQ(RunGate(BaselinePath(name), BaselinePath(name), &out), 0) << name << "\n" << out;
  }
}

// Raises a plain decimal number by one unit in its last printed digit.
std::string Step(std::string token) {
  for (size_t i = token.size(); i-- > 0;) {
    if (token[i] == '.') {
      continue;
    }
    if (token[i] != '9') {
      ++token[i];
      return token;
    }
    token[i] = '0';
  }
  return "1" + token;
}

TEST(BenchGateTest, OneDetLeafMovedByOneStepFailsAndIsNamed) {
  struct Case {
    const char* baseline;
    const char* anchor;  // Text just before the leaf's key.
    const char* key;
    const char* path;  // How bench_gate names the leaf.
  };
  const Case cases[] = {
      {"perf_smoke.json", "\"det\":{", "events", "det.events"},
      {"perf_smoke_latency.json", "{\"stage\":\"ctx_queue\"", "mean_ns",
       "det.latency.stages[ctx_queue].mean_ns"},
      {"proxy_cycles.json", "{\"edge\":\"net_request\"", "p99_ns",
       "det.critical_path.classes[hit].edges[net_request].p99_ns"},
      {"million_flow_churn.json", "\"det\":{", "events_per_packet", "det.events_per_packet"},
      {"watchdog_chaos.json", "\"det\":{", "timeout_retransmits", "det.timeout_retransmits"},
      {"fig5_shortlived.json", "\"det\":{", "tas_mops", "det.points[0].tas_mops"},
      {"table1_cycles.json", "\"tas\":{", "sockets", "det.tas.sockets"},
      {"fig12_cluster.json", "\"long\":{", "tas_p99_ms", "det.long.tas_p99_ms"},
      {"fig11_cc_interval.json", "\"tau_us\":500", "tas_fct_ms", "det.rows[3].tas_fct_ms"},
  };
  for (const Case& c : cases) {
    const std::string base = ReadText(BaselinePath(c.baseline));
    const size_t at = base.find(std::string("\"") + c.key + "\":", base.find(c.anchor));
    ASSERT_NE(at, std::string::npos) << c.baseline << " " << c.key;
    const size_t from = at + std::string(c.key).size() + 3;
    const size_t to = base.find_first_not_of("0123456789.", from);
    const std::string moved = base.substr(0, from) + Step(base.substr(from, to - from)) +
                              base.substr(to);
    std::string out;
    EXPECT_EQ(RunGate(BaselinePath(c.baseline), WriteTemp(c.baseline, moved), &out), 1)
        << c.baseline << "\n" << out;
    EXPECT_NE(out.find(std::string(c.path) + ": baseline " + base.substr(from, to - from)),
              std::string::npos)
        << out;
  }
}

TEST(BenchGateTest, MissingRequestClassFails) {
  const std::string base = ReadText(BaselinePath("proxy_cycles.json"));
  const size_t from = base.find("{\"request_class\":\"store\"");
  const size_t to = base.find("{\"request_class\":\"splice\"");
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  std::string out;
  EXPECT_EQ(RunGate(BaselinePath("proxy_cycles.json"),
                    WriteTemp("no_store.json", base.substr(0, from) + base.substr(to)), &out),
            1)
      << out;
  // The class's request count, as the baseline records it.
  const size_t count_at = base.find("\"count\":", from) + 8;
  const std::string count = base.substr(count_at, base.find(',', count_at) - count_at);
  EXPECT_NE(out.find("det.critical_path.classes[store].count: baseline " + count +
                     ", current (absent)"),
            std::string::npos)
      << out;
}

TEST(BenchGateTest, ChangingEveryWallLeafPasses) {
  for (const char* name : kBaselines) {
    const std::string base = ReadText(BaselinePath(name));
    std::string changed = base;
    for (size_t i = base.find("\"wall\":"); i < changed.size(); ++i) {
      if (changed[i] >= '0' && changed[i] <= '9') {
        changed[i] = changed[i] == '7' ? '8' : '7';
      }
    }
    ASSERT_NE(changed, base) << name;
    std::string out;
    EXPECT_EQ(RunGate(BaselinePath(name), WriteTemp(name, changed), &out), 0) << name << out;
  }
}

TEST(BenchGateTest, ForeignOrMalformedRecordsAreErrors) {
  const std::string latency = BaselinePath("perf_smoke_latency.json");
  const std::string text = ReadText(latency);
  std::string out;
  // Another bench, and the same bench under another config.
  EXPECT_EQ(RunGate(latency, BaselinePath("proxy_cycles.json"), &out), 2) << out;
  EXPECT_EQ(RunGate(latency, BaselinePath("perf_smoke.json"), &out), 2) << out;
  // No det.
  std::string no_det = text;
  no_det.replace(no_det.find("\"det\":"), 6, "\"dex\":");
  EXPECT_EQ(RunGate(latency, WriteTemp("no_det.json", no_det), &out), 2) << out;
  // Not a record, a truncated record, and two records in one output.
  for (const std::string& bad :
       {std::string("{\"hello\":1}\n"), std::string("plain text\n"),
        text.substr(0, text.size() / 2),
        "BENCH_JSON " + text + "BENCH_JSON " + text}) {
    const std::string path = WriteTemp("bad.json", bad);
    EXPECT_EQ(RunGate(latency, path, &out), 2) << bad.substr(0, 40) << "\n" << out;
    EXPECT_EQ(RunGate(path, latency, &out), 2) << bad.substr(0, 40) << "\n" << out;
  }
}

// --- Reader robustness -------------------------------------------------------

// Truncates and/or flips bytes of `text`; flips favour the characters the
// reader keys on.
std::string Mutate(const std::string& text, std::mt19937_64& rng) {
  static const char kPicks[] = "{}[]\":,.-+e0123456789 x\\";
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

TEST(BenchRecordReaderTest, RandomBytesReadOrAreRejected) {
  std::mt19937_64 rng(20191);
  int rejected = 0;
  for (const char* name : kBaselines) {
    const std::string base = ReadText(BaselinePath(name));
    JsonNode record;
    std::string error;
    ASSERT_TRUE(ReadBenchRecord(base, &record, &error)) << name << ": " << error;
    for (int i = 0; i < 400; ++i) {
      if (!ReadBenchRecord(Mutate(base, rng), &record, &error)) {
        EXPECT_FALSE(error.empty());
        ++rejected;
        continue;
      }
      std::vector<std::pair<std::string, std::string>> leaves;
      FlattenJson(*record.Find("det"), "det", &leaves);
      EXPECT_FALSE(leaves.empty());
    }
  }
  EXPECT_GT(rejected, 0);  // The loop does reach the malformed paths.
}

}  // namespace
}  // namespace bench
}  // namespace tas
