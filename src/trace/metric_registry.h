// MetricRegistry: one named namespace for every counter and gauge in the
// system. Subsystems keep owning their stats storage (TasStats, LinkStats,
// per-Core cycle arrays stay exactly where they are) and register *views*
// here — a pointer for monotone counters, a callback for gauges — so a
// snapshot walks live values without copying anything on the hot path.
//
// Naming scheme (DESIGN.md §7): dot-separated, lower_snake leaf, e.g.
//   tas.fastpath.rx_packets     nic.rx_drops        link.h0.d0.tx_bytes
//   sim.max_pending_events      tas.core.2.busy_ns  tas.slowpath.control_iterations
// Prefixes identify the owning component instance; registries are per-host
// (TasService) or per-experiment, so prefixes only need local uniqueness.
#ifndef SRC_TRACE_METRIC_REGISTRY_H_
#define SRC_TRACE_METRIC_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace tas {

enum class MetricKind : uint8_t {
  kCounter,  // Monotone event count; snapshot diffs subtract.
  kGauge,    // Point-in-time level; snapshot diffs keep the newer value.
};

const char* MetricKindName(MetricKind kind);

// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;
};

// A point-in-time capture of every registered metric, sorted by name.
using MetricSnapshot = std::vector<MetricSample>;

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Registers a counter backed by caller-owned storage. The pointer must
  // outlive the registry (stats structs and the registry share an owner in
  // practice: the service or the experiment).
  void AddCounter(std::string name, const uint64_t* value);
  // Counter whose value is computed on demand (e.g. Simulator accessors).
  // `fn` is a lambda whose result is read as a uint64_t; it is stored inside
  // the entry's one reader, so pass the lambda itself, not a std::function
  // around it.
  template <typename Fn>
  void AddCounterFn(std::string name, Fn fn) {
    Add(std::move(name), MetricKind::kCounter, [fn = std::move(fn)] {
      return static_cast<double>(static_cast<uint64_t>(fn()));
    });
  }
  // Gauge sampled via callback at snapshot time.
  void AddGauge(std::string name, std::function<double()> fn);
  // Releases the entry vector's growth slack. Owners call it once their
  // registrations are done, so a built host keeps exactly its entries.
  void ShrinkToFit() { entries_.shrink_to_fit(); }

  bool Has(const std::string& name) const;
  size_t size() const { return entries_.size(); }

  // Reads one metric's current value by name (linear scan; fine at the
  // watchdog's check cadence). Returns false if the name is not registered.
  // kMetricValue SLOs evaluate through this.
  bool ReadValue(const std::string& name, double* out) const;

  MetricSnapshot Snapshot() const;
  // Counters: after - before (new entries keep their value). Gauges: the
  // `after` value. Entries only in `before` are dropped.
  static MetricSnapshot Diff(const MetricSnapshot& before, const MetricSnapshot& after);

  // One JSON object per line: {"name":"...","kind":"counter","value":123}.
  static void WriteJsonl(const MetricSnapshot& snapshot, std::ostream& os);
  void WriteJsonl(std::ostream& os) const { WriteJsonl(Snapshot(), os); }

 private:
  // One reader per entry: pointer-backed counters become a callable that
  // loads the pointer, so every entry is a name, a kind and one callable.
  struct Entry {
    std::string name;
    std::function<double()> read;
    MetricKind kind;
  };

  void Add(std::string name, MetricKind kind, std::function<double()> read);

  std::vector<Entry> entries_;
};

// Writes a JSON-escaped string literal (including the quotes).
void JsonEscape(const std::string& s, std::ostream& os);
// Formats a double compactly and deterministically: integral values print as
// integers, everything else with enough digits to round-trip visually.
std::string JsonNumber(double v);

}  // namespace tas

#endif  // SRC_TRACE_METRIC_REGISTRY_H_
