// The benchmark's three workloads, each run as self-contained rounds: build
// an Experiment, warm it up, measure one fixed simulated phase, check the
// outputs, tear it down. Everything simulated in a round is a pure function
// of the workload and seed; only the host timings vary between rounds.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

enum class RoundMode {
  kSetupOnly,  // Build and warm up, then stop (extra set-up samples).
  kUntraced,   // Measure with spans off: the end-to-end numbers.
  kTraced,     // Measure with boundary spans, latency stamping and layer counters.
};

// One percentile of a pooled sample set and the samples behind it.
struct PercentileNote {
  std::string metric;
  double p = 0;
  double value = 0;  // Simulated microseconds.
  uint64_t samples = 0;
  double beyond = 0;      // Samples above the percentile.
  bool reported = true;   // False: printed for information, not a metric.
};

struct RoundResult {
  // Simulated end-to-end metrics (deterministic for a workload and seed).
  std::map<std::string, double> sim;
  // Per-layer metrics; filled by traced rounds only.
  std::map<std::string, double> layers;
  uint64_t ops = 0;        // Ops completed in the measured phase.
  uint64_t attempted = 0;  // Ops attempted in the measured phase.
  uint64_t failed = 0;     // Failed, refused or incomplete ops.
  uint64_t events = 0;     // Simulator events in the measured phase.
  uint64_t cycles = 0;     // Simulated CPU cycles of the measured hosts.
  double sim_s = 0;        // Simulated length of the measured phase.
  // Named latency sample sets in simulated microseconds, pooled over every
  // client at full resolution.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;  // Failed correctness checks.
  std::vector<PercentileNote> percentiles;
  std::set<std::string> absent;  // Layer counters not found by name.
  // Host time, in CPU seconds of the (single-threaded) benchmark process.
  double build_s = 0;    // Experiment and application construction.
  double warmup_s = 0;   // Simulated warm-up up to the measured phase.
  double measure_s = 0;  // The measured phase.
  double measure_wall_s = 0;  // The measured phase in wall seconds.
  // Ops per CPU second of each ~10 ms simulated slice of the measured phase.
  std::vector<double> slice_ops_per_s;

  double setup_s() const { return build_s + warmup_s; }
  // Every simulated quantity at full precision; equal strings mean equal
  // simulated outcomes.
  std::string Fingerprint() const;
};

// Metric-name spelling of each CpuModule, in enum order.
inline constexpr const char* kCpuModuleMetricNames[] = {"driver", "ip",    "tcp",
                                                        "sockets", "other", "app"};

// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Runs one round of `workload`. Returns false if the name is unknown.
bool RunRound(const std::string& workload, uint64_t seed, RoundMode mode, RoundResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
