// Simulated CPU cores with cycle accounting.
//
// Every piece of stack and application work charges cycles on a core. A core
// serializes its work: a charge starts no earlier than the core's previous
// work finished, so saturation, queueing delay and core sharing fall out
// naturally. Charges are tagged with the module breakdown the paper uses in
// Table 1 (Driver / IP / TCP / Sockets / Other / App) so the table can be
// regenerated from measured simulation cycles.
#ifndef SRC_CPU_CORE_H_
#define SRC_CPU_CORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace tas {

enum class CpuModule : int {
  kDriver = 0,
  kIp = 1,
  kTcp = 2,
  kSockets = 3,
  kOther = 4,
  kApp = 5,
};
inline constexpr int kNumCpuModules = 6;

const char* CpuModuleName(CpuModule m);

// Clock of every host core, stack and application alike: the paper's
// testbed servers run at 2.1 GHz.
inline constexpr double kCoreGhz = 2.1;

class Core {
 public:
  Core(Simulator* sim, int id, double ghz);

  int id() const { return id_; }
  double ghz() const { return ghz_; }

  TimeNs CyclesToTime(uint64_t cycles) const { return CyclesToNs(cycles, ghz_); }

  // Charges `cycles` of serialized work: the work starts at
  // max(now, busy_until) and the function returns its completion time.
  // Callers schedule downstream effects (packet send, app notification) at
  // the returned time.
  TimeNs Charge(CpuModule module, uint64_t cycles);

  // Accounts cycles without occupying the core timeline (e.g. work already
  // covered by an enclosing Charge but attributed to a different module).
  void Account(CpuModule module, uint64_t cycles);

  // Time at which previously charged work completes.
  TimeNs busy_until() const { return busy_until_; }
  bool IdleAt(TimeNs t) const { return busy_until_ <= t; }

  // Cumulative busy nanoseconds (sum of charged durations).
  TimeNs busy_ns() const { return busy_ns_; }

  // The most busy_until() has stood ahead of simulated time right after a
  // charge: how far this core's booked work ever ran ahead of the clock.
  TimeNs max_ahead_ns() const { return max_ahead_ns_; }

  // Busy fraction over (window_start, now], using the caller's snapshot of
  // busy_ns() at window_start.
  double Utilization(TimeNs busy_ns_at_start, TimeNs window_start, TimeNs now) const;

  uint64_t cycles(CpuModule module) const {
    return cycles_[static_cast<size_t>(module)];
  }
  uint64_t total_cycles() const;
  void ResetAccounting();

  // Observer for the trace layer: called once per Charge with the busy
  // interval [start, end) it occupied. Unset (the default) costs one branch.
  using SpanListener = std::function<void(CpuModule, TimeNs start, TimeNs end)>;
  void set_span_listener(SpanListener listener) { span_listener_ = std::move(listener); }

 private:
  Simulator* sim_;
  int id_;
  double ghz_;
  TimeNs busy_until_ = 0;
  TimeNs busy_ns_ = 0;
  TimeNs max_ahead_ns_ = 0;
  std::array<uint64_t, kNumCpuModules> cycles_ = {};
  SpanListener span_listener_;
};

}  // namespace tas

#endif  // SRC_CPU_CORE_H_
