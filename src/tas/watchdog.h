// SloWatchdog: declarative SLO evaluation over the flight recorder
// (DESIGN.md §15). One watchdog per armed TAS host, firing on the monitor
// cadence; each check measures every spec against deterministic sim state
// only — latency/probe histograms (windowed via LogHistogram::DiffSince),
// TasStats deltas, slow-path queue depth, per-core busy-time deltas, or any
// registered metric — counts consecutive breaches (burn windows), and on a
// sustained breach hands a SloTrigger plus a context closure to the
// FlightRecorder for bundle serialization. Same seed => same measurements =>
// same triggers.
#ifndef SRC_TAS_WATCHDOG_H_
#define SRC_TAS_WATCHDOG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/trace/flight_recorder.h"
#include "src/util/stats.h"
#include "src/util/time.h"

namespace tas {

class PeriodicTask;
class TasService;

class SloWatchdog {
 public:
  // `recorder` is the experiment's FlightRecorder (its context owns it).
  SloWatchdog(TasService* service, FlightRecorder* recorder);
  ~SloWatchdog();

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  // Begins periodic checks (config.check_interval, or the service's
  // monitor_interval when 0). Idempotent.
  void Start();

  // Trigger attribution label ("h<i>" from the harness; defaults to
  // "ip<local-ip>"). Part of the deterministic bundle sort key.
  void set_source(std::string source) { source_ = std::move(source); }
  const std::string& source() const { return source_; }

  uint64_t checks() const { return checks_; }
  uint64_t breached_checks() const { return breached_checks_; }
  uint64_t triggers_fired() const { return triggers_fired_; }
  const std::vector<SloSpec>& slos() const { return specs_; }

  // One watchdog check, exposed for tests; normal operation runs it from the
  // periodic task.
  void Check();

  // The bundle "context" object for this host at the current sim time:
  // metrics snapshot, steering drain state, flow-table occupancy, slow-path
  // queue state, and the latency / critical-path reports when the
  // experiment's tracers are on.
  std::string ContextJson() const;

 private:
  struct SloState {
    SloSpec spec;
    int streak = 0;
    bool ever_triggered = false;
    TimeNs last_trigger = 0;
    // Windowed baselines, by kind (unused slots stay empty).
    LogHistogram prev_hist;          // e2e / probe-length cumulative snapshot.
    uint64_t prev_counter = 0;       // Retransmit total at the last check.
    std::vector<TimeNs> prev_busy;   // Per-core busy ns at the last check.
  };

  // Measures one spec over the window since its last check. Returns the
  // value compared against the threshold; *count is the evaluation-floor
  // quantity (samples / busy ns) checked against SloSpec::min_count.
  double Measure(SloState& state, TimeNs window_ns, uint64_t* count);

  TasService* service_;
  FlightRecorder* recorder_;
  std::string source_;
  std::vector<SloSpec> specs_;   // The resolved spec set (config or defaults).
  std::vector<SloState> states_;  // states_[i].spec == specs_[i].
  std::unique_ptr<PeriodicTask> task_;
  TimeNs last_check_ = 0;
  uint64_t checks_ = 0;
  uint64_t breached_checks_ = 0;
  uint64_t triggers_fired_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_WATCHDOG_H_
