// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs rounds of one workload (see workloads.h) for about `seconds` of wall
// time, on one thread with the serial simulator, and prints every metric by
// name with its unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
// alternates untraced and traced rounds and reports the per-layer metrics,
// including the tracing overhead between the two.
//
// Correctness checks, each of which makes the run exit 1 (after printing
// the result with "correct": false): the workload's own output checks; every
// round of one seed reproduces the same simulated outcome; traced and
// untraced rounds agree on it exactly (tracing is passive); and on
// echo_pipelined, which has no random input, a second seed agrees too.
// Usage errors exit 2 without a result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

// Untraced runs compare at least two same-seed rounds; traced runs compare
// at least one traced round against one untraced round.
constexpr int kMinUntracedRounds = 2;
constexpr int kMinTracedRounds = 1;
constexpr int kMinSetups = 3;  // Set-up samples behind the setup_s median.

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && opt->seconds > 0;
    } else if (key == "--trace") {
      opt->trace = std::strcmp(value, "1") == 0;
      have_trace = opt->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Units of every reported metric; BENCHMARK.json lists the same.
const std::map<std::string, std::string>& Units() {
  static const std::map<std::string, std::string> kUnits = [] {
    std::map<std::string, std::string> u{
        {"setup_s", "s"},
        {"host.ops_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
        {"sim_ops_per_s", "sim_ops/s"},
        {"sim_p50_us", "sim_us"},
        {"sim_p99_us", "sim_us"},
        {"sim_tail_us", "sim_us"},
        {"cycles_per_op", "cycles"},
        {"sim.events_per_op", "events"},
        {"sim.ns_per_event", "ns"},
        {"sim.max_pending_events", "events"},
        {"sim.cancelled_per_op", "events"},
        {"net.pkts_per_op", "pkts"},
        {"net.pktpool.alloc_frac", "ratio"},
        {"net.switch.forwarded_per_op", "pkts"},
        {"net.link.ecn_marks_per_mb", "marks/MB"},
        {"net.link.drops_overflow", "pkts"},
        {"net.link.queue_hw_pkts", "pkts"},
        {"nic.rx_drops", "pkts"},
        {"nic.ring_depth_hw", "pkts"},
        {"fp.batch_avg", "items"},
        {"fp.work_queue_hw", "items"},
        {"fp.exception_frac", "ratio"},
        {"sp.conns_per_op", "conns"},
        {"sp.handshake_retx", "count"},
        {"sp.timeout_retx", "count"},
        {"sp.control_iterations_per_ms", "1/sim_ms"},
        {"ft.lookups_per_pkt", "lookups"},
        {"ft.probe_p99", "groups"},
        {"ft.rehashes", "count"},
        {"cc.retx_per_mb", "pkts/MB"},
        {"cc.ooo_accepted_per_mb", "pkts/MB"},
        {"shm.doorbells_coalesced_per_op", "count"},
        {"shm.ctx_dropped_events", "events"},
        {"shm.ctx_queue_hw", "entries"},
        {"libtas.self_ns_per_op", "ns"},
        {"engine.self_ns_per_op", "ns"},
        {"app.self_ns_per_op", "ns"},
        {"below_socket.self_ns_per_op", "ns"},
        {"harness.build_s", "s"},
        {"harness.warmup_s", "s"},
        {"proxy.hit_rate", "ratio"},
        {"proxy.coalesced_frac", "ratio"},
        {"proxy.pool_conns_hw", "conns"},
        {"proxy.spliced_bytes_per_op", "bytes"},
        {"trace.records_per_op", "records"},
        {"trace.dropped", "records"},
        {"bench.trace_overhead", "ratio"},
    };
    for (const char* m : kCpuModuleMetricNames) {
      u[std::string("cpu.") + m + ".cycles_per_op"] = "cycles";
    }
    for (const char* s : {"ctx_queue", "fp_tx", "link_queue", "link_wire", "switch_queue",
                          "nic_rx_ring", "fp_rx"}) {
      u[std::string("lat.") + s + ".mean_us"] = "sim_us";
    }
    for (const char* e : {"net_request", "cache_work", "coalesce_wait", "overflow_queue",
                          "origin_queue", "net_to_origin", "origin_serve", "net_from_origin",
                          "proxy_send", "net_response"}) {
      u[std::string("cp.") + e + ".mean_us"] = "sim_us";
    }
    return u;
  }();
  return kUnits;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, double>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << std::max<uint64_t>(attempted, 1) << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    const auto unit = Units().find(name);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << JsonNumber(value)
              << ", \"unit\": \"" << (unit != Units().end() ? unit->second : "?") << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

struct Round {
  RoundResult result;
  uint64_t seed = 0;
  RoundMode mode = RoundMode::kUntraced;

  double host_ops_per_s() const { return result.ops / std::max(result.measure_s, 1e-9); }
};

int Run(const Options& opt) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  std::cout << "perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << std::endl;

  // echo_pipelined has no random input: every other untraced round runs
  // under a second seed and must reproduce the first seed's numbers.
  const bool cross_seed = opt.workload == "echo_pipelined";
  std::vector<Round> rounds;
  std::vector<double> setups;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  int untraced = 0, traced = 0;
  const int min_untraced = opt.trace ? kMinTracedRounds : kMinUntracedRounds;
  while (elapsed() < opt.seconds || untraced < min_untraced ||
         (opt.trace && traced < kMinTracedRounds)) {
    Round r;
    r.mode = opt.trace && traced < untraced ? RoundMode::kTraced : RoundMode::kUntraced;
    const int index = r.mode == RoundMode::kTraced ? traced++ : untraced++;
    r.seed = cross_seed && !opt.trace && index % 2 == 1 ? opt.seed + 1 : opt.seed;
    RunRound(opt.workload, r.seed, r.mode, &r.result);
    std::cout << "round " << rounds.size() << (r.mode == RoundMode::kTraced ? " traced" : " untraced")
              << " seed=" << r.seed << " setup_s=" << r.result.setup_s()
              << " measure_s=" << r.result.measure_s << " host.ops_per_s=" << r.host_ops_per_s()
              << " events_per_op=" << r.result.events / std::max<double>(r.result.ops, 1)
              << std::endl;
    setups.push_back(r.result.setup_s());
    rounds.push_back(std::move(r));
  }
  while (static_cast<int>(setups.size()) < kMinSetups) {
    RoundResult setup_only;
    RunRound(opt.workload, opt.seed, RoundMode::kSetupOnly, &setup_only);
    setups.push_back(setup_only.setup_s());
  }

  // --- Correctness ---
  std::vector<std::string> failures;
  const Round& first = rounds.front();
  for (const Round& r : rounds) {
    for (const std::string& f : r.result.failures) {
      failures.push_back(f);
    }
    if (r.result.Fingerprint() != first.result.Fingerprint()) {
      const bool other_seed = r.seed != first.seed;
      const bool other_mode = r.mode != first.mode;
      failures.push_back(std::string("simulated outcome differs ") +
                         (other_seed   ? "across seeds (echo_pipelined has no random input)"
                          : other_mode ? "between traced and untraced rounds (tracing is not passive)"
                                       : "between same-seed rounds") +
                         ": " + first.result.Fingerprint() + " vs " + r.result.Fingerprint());
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());

  // --- Report ---
  // Host throughput is the median of the per-slice rates over every round, so
  // a burst of interference from other tenants of the machine spoils a few
  // slices, not the run. It is a per-layer metric, recorded but not gated:
  // on a shared machine the same binary's host throughput drifts by up to 2x
  // over an hour, far beyond any usable regression bound.
  std::vector<double> untraced_ops, traced_ops, build, warmup, ns_per_event;
  std::map<std::string, std::vector<double>> layer_values;
  std::set<std::string> absent;
  for (const Round& r : rounds) {
    absent.insert(r.result.absent.begin(), r.result.absent.end());
    const std::vector<double>& slices = r.result.slice_ops_per_s;
    if (r.mode == RoundMode::kTraced) {
      traced_ops.insert(traced_ops.end(), slices.begin(), slices.end());
      for (const auto& [name, value] : r.result.layers) {
        layer_values[name].push_back(value);
      }
    } else {
      untraced_ops.insert(untraced_ops.end(), slices.begin(), slices.end());
      build.push_back(r.result.build_s);
      warmup.push_back(r.result.warmup_s);
      ns_per_event.push_back(r.result.measure_s * 1e9 / std::max<uint64_t>(r.result.events, 1));
    }
  }

  std::map<std::string, double> metrics;
  if (opt.trace) {
    for (const auto& [name, values] : layer_values) {
      metrics[name] = Median(values);
    }
    metrics["sim.ns_per_event"] = Median(ns_per_event);
    metrics["harness.build_s"] = Median(build);
    metrics["harness.warmup_s"] = Median(warmup);
    metrics["host.ops_per_s"] = Median(untraced_ops);
    metrics["bench.trace_overhead"] = Median(untraced_ops) / Median(traced_ops);
  } else {
    metrics = first.result.sim;
    metrics["setup_s"] = Median(setups);
    metrics["peak_rss_mb"] = PeakRssMiB();
  }

  std::cout << "rounds: " << untraced << " untraced, " << traced << " traced; "
            << setups.size() << " set-ups; " << elapsed() << " s\n";
  for (const PercentileNote& p : first.result.percentiles) {
    std::cout << "percentile " << p.metric << " p" << p.p << " = " << p.value << " sim_us over "
              << p.samples << " samples, " << p.beyond << " beyond"
              << (p.reported ? "" : " (information only)")
              << (p.beyond < 10 ? "  [FEWER THAN 10 SAMPLES BEYOND]" : "") << "\n";
  }
  for (const std::string& name : absent) {
    std::cout << "absent: no registered metric matches " << name
              << " (renamed, removed, or not enabled in this workload)\n";
  }
  for (const auto& [name, value] : metrics) {
    std::cout << "metric " << name << " = " << JsonNumber(value) << " " << Units().at(name)
              << "\n";
  }
  for (const std::string& f : failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  PrintResult(failures.empty(), first.result.attempted, first.result.failed, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const char* threads = std::getenv("TAS_SIM_THREADS");
  if (threads != nullptr && *threads != '\0') {
    std::cerr << "perfbench: TAS_SIM_THREADS is set; the benchmark measures the serial "
                 "simulator only. Unset it and rerun.\n";
    return 2;
  }
  perfbench::Options opt;
  if (!perfbench::ParseOptions(argc, argv, &opt)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  return perfbench::Run(opt);
}
