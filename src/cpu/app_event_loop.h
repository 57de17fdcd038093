// AppEventLoop: the one rule by which every stack hands events to an
// application thread (DESIGN.md §4, "One app-event loop").
//
// A loop serves one app core. The stack appends events to `source` and calls
// Wake(). When the loop holds no batch and its wake condition holds, it
// gathers events worth up to `batch` notifications, charges each one's
// receive-API cycles on the core (from the core's horizon, so after all work
// the last dispatch booked) and dispatches the whole batch with ONE event at
// the last charge's end plus `wakeup_latency`. It gathers again only after
// that dispatch ran, so the core's booked work stays within one batch of the
// clock. The wake condition is "an event is queued", or with a
// `batch_timeout` (mTCP) "a full batch is queued, or the timeout passed since
// a partial one was".
//
// An event is one notification unless the stack's `units` function says
// otherwise (libTAS: a data entry carrying received bytes and freed send
// space is two). The batch limit counts notifications, so merging two
// notifications into one queue entry saves the entry's read, not poll
// granularity. An event that would take the batch past the limit waits for
// the next batch; the first event of a batch always goes, whatever it holds.
#ifndef SRC_CPU_APP_EVENT_LOOP_H_
#define SRC_CPU_APP_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/cpu/core.h"
#include "src/sim/simulator.h"
#include "src/util/fifo.h"

namespace tas {

// Cycles an app core pays to read one bookkeeping event (send space,
// connection control) off its queue, under every stack and cost model; an
// event that brings received data pays the model's `rx_api` instead.
inline constexpr uint64_t kEventReadCycles = 60;

struct AppEventLoopConfig {
  size_t batch = 16;
  TimeNs batch_timeout = 0;
  TimeNs wakeup_latency = 0;
};

template <typename Event>
class AppEventLoop {
 public:
  using CostFn = std::function<uint64_t(const Event&)>;
  // Notifications an event carries; null means one each.
  using UnitsFn = std::function<size_t(const Event&)>;
  using DispatchFn = std::function<void(const std::vector<Event>&)>;
  // Runs after a dispatch that left nothing to gather.
  using IdleFn = std::function<void()>;

  AppEventLoop(Simulator* sim, Core* core, Fifo<Event>* source, const AppEventLoopConfig& config,
               CostFn cost, UnitsFn units, DispatchFn dispatch, IdleFn idle = nullptr)
      : sim_(sim), core_(core), source_(source), config_(config), cost_(std::move(cost)),
        units_(std::move(units)), dispatch_(std::move(dispatch)), idle_(std::move(idle)) {}
  AppEventLoop(const AppEventLoop&) = delete;
  AppEventLoop& operator=(const AppEventLoop&) = delete;

  void Wake() {
    if (draining_ || source_->empty()) {
      return;
    }
    if (config_.batch_timeout > 0 && source_->size() < config_.batch && !timed_out_) {
      if (!timer_.valid()) {
        timer_ = sim_->After(config_.batch_timeout, [this] {
          timed_out_ = true;
          Wake();
        });
      }
      return;
    }
    timer_.Cancel();
    timed_out_ = false;
    batch_.clear();
    TimeNs done = 0;
    size_t units = 0;
    while (!source_->empty()) {
      const size_t n = units_ ? units_(source_->front()) : 1;
      if (!batch_.empty() && units + n > config_.batch) {
        break;
      }
      units += n;
      const Event& event = batch_.emplace_back(source_->front());
      source_->pop_front();
      done = core_->Charge(CpuModule::kSockets, cost_(event));
    }
    draining_ = true;
    sim_->At(done + config_.wakeup_latency, [this] {
      // draining_ stays set through dispatch: a handler may raise events on
      // this loop, and a nested gather would clobber the batch.
      dispatch_(batch_);
      draining_ = false;
      Wake();
      if (!draining_ && idle_) {
        idle_();
      }
    });
  }

  // A gathered batch waits for (or is in) its dispatch.
  bool draining() const { return draining_; }

 private:
  Simulator* sim_;
  Core* core_;
  Fifo<Event>* source_;
  AppEventLoopConfig config_;
  CostFn cost_;
  UnitsFn units_;
  DispatchFn dispatch_;
  IdleFn idle_;
  std::vector<Event> batch_;  // Keeps its capacity across dispatches.
  bool draining_ = false;
  bool timed_out_ = false;
  EventHandle timer_;
};

}  // namespace tas

#endif  // SRC_CPU_APP_EVENT_LOOP_H_
