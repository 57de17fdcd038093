// Scripted fault timelines: a FaultSchedule declares "what goes wrong when"
// (link flaps, timed loss/corruption/reorder windows, arbitrary thunks) and a
// FaultInjector executes it on simulator time, keeping a log of every applied
// event. Harness scenarios, benches, and the chaos tests build reproducible
// misbehavior from these instead of hand-rolling sim->At calls.
#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/impairment.h"
#include "src/net/link.h"
#include "src/sim/simulator.h"

namespace tas {

struct FaultEvent {
  TimeNs at = 0;
  std::string description;
  std::function<void()> apply;
};

class FaultSchedule {
 public:
  // The escape hatch: run any thunk at `t` under the injector's log.
  FaultSchedule& At(TimeNs t, std::string description, std::function<void()> apply);

  // --- Link conveniences ----------------------------------------------------
  // "At 50 ms, flap host 2's link for 10 ms."
  FaultSchedule& LinkDownAt(TimeNs t, Link* link);
  FaultSchedule& LinkUpAt(TimeNs t, Link* link);
  FaultSchedule& LinkFlap(TimeNs t, TimeNs duration, Link* link);

  // "From 100-200 ms, 5% burst loss on the switch uplink": installs the
  // impairment on one direction (or both) of `link` at `from`, removes it at
  // `to`. The impairment's stats live as long as the window does, so read
  // them from inside the window or use the link's aggregate counters.
  FaultSchedule& ImpairmentWindow(TimeNs from, TimeNs to, Link* link, int side,
                                  const ImpairmentSpec& spec);
  FaultSchedule& ImpairmentWindowBoth(TimeNs from, TimeNs to, Link* link,
                                      const ImpairmentSpec& spec);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

class FaultInjector {
 public:
  explicit FaultInjector(Simulator* sim) : sim_(sim) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of `schedule`, one simulator event each. Events
  // whose time already passed fire at the current simulator time, in
  // schedule order. May be called repeatedly to layer additional chaos.
  void Install(FaultSchedule schedule);

  struct LogEntry {
    TimeNs at = 0;
    std::string description;
  };
  // Applied events, in execution order; the reproducibility record.
  const std::vector<LogEntry>& log() const { return log_; }
  size_t pending() const { return pending_; }
  Simulator* sim() const { return sim_; }

 private:
  Simulator* sim_;
  std::vector<LogEntry> log_;
  size_t pending_ = 0;
};

}  // namespace tas

#endif  // SRC_FAULT_INJECTOR_H_
