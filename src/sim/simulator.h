// Discrete-event simulation core.
//
// The paper evaluates TAS on a physical cluster plus ns-3 simulations; here
// every experiment runs on this event simulator. Events are (time, seq,
// callback) entries in a 4-ary min-heap; same-time ties break by insertion
// order (seq), so runs are fully deterministic.
//
// Hot-path memory discipline (DESIGN.md §8): closures live in a slab of
// pooled event nodes (EventFn keeps captures inline), the heap orders
// compact POD entries, and cancellation is a generation bump — steady-state
// scheduling performs zero heap allocations.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/util/logging.h"
#include "src/util/time.h"

namespace tas {

class Simulator;

// Handle for cancelling a scheduled event. Names a pooled event node by
// (index, generation); firing, cancelling, or recycling a node bumps its
// generation, so a stale handle reports invalid instead of aliasing the
// node's next tenant (ABA-safe without a per-event shared_ptr flag).
class EventHandle {
 public:
  EventHandle() = default;

  // True while the event is still pending (not fired, not cancelled).
  bool valid() const;
  // Cancels the event if it has not fired yet. The closure (and anything it
  // owns, e.g. an in-flight packet) is destroyed immediately; the heap entry
  // is lazily skipped when popped.
  void Cancel();

 private:
  friend class Simulator;
  EventHandle(Simulator* sim, uint32_t node, uint32_t generation)
      : sim_(sim), node_(node), generation_(generation) {}
  Simulator* sim_ = nullptr;
  uint32_t node_ = 0;
  uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()).
  EventHandle At(TimeNs when, EventFn fn);

  // Schedules `fn` to run `delay` after Now().
  EventHandle After(TimeNs delay, EventFn fn) { return At(now_ + delay, std::move(fn)); }

  // Like At(), but a `when` that already passed runs at Now() instead of
  // failing. Fault schedules installed mid-run rely on this: events whose
  // time predates installation apply immediately, in schedule order.
  EventHandle AtClamped(TimeNs when, EventFn fn) {
    return At(when < now_ ? now_ : when, std::move(fn));
  }

  // Re-arms the event currently being dispatched at a new time, reusing its
  // node and closure (zero allocation; PeriodicTask re-arms this way every
  // period). Only valid inside an event callback, at most once per dispatch.
  EventHandle RearmCurrent(TimeNs when);

  // Runs events until the queue empties or `until` is reached (whichever is
  // first). Returns the number of events executed.
  uint64_t RunUntil(TimeNs until);

  // Runs until the event queue drains completely.
  uint64_t Run();

  // Stops the current Run/RunUntil after the in-flight event completes.
  void Stop() { stopped_ = true; }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }
  // High-water mark of pending_events() over the run (updated at schedule
  // time; a cheap dispatch-pressure metric for the trace layer).
  size_t max_pending_events() const { return max_pending_events_; }

  // --- Allocator-pressure counters (DESIGN.md §8) ---------------------------
  // Events disarmed via EventHandle::Cancel().
  uint64_t cancelled_events() const { return cancelled_events_; }
  // Stale heap entries retired: popped and skipped (lazy deletion catching
  // up) or dropped by a tombstone purge.
  uint64_t cancelled_popped() const { return cancelled_popped_; }
  // Event-node slab occupancy: total nodes ever created and how many sit on
  // the free list right now.
  size_t event_nodes_total() const { return nodes_.size(); }
  size_t event_nodes_free() const { return free_count_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  // One slab slot. Lives in a deque so addresses stay stable while the slab
  // grows mid-dispatch; recycled through an intrusive free list.
  struct EventNode {
    EventFn fn;
    uint32_t generation = 0;
    uint32_t next_free = kNoNode;
    bool armed = false;  // In the heap and not cancelled.
  };

  // What the heap orders: a 24-byte POD that names its node. Entries are
  // never removed early; a generation mismatch at pop time means the event
  // was cancelled (or the node recycled) and the entry is skipped.
  //
  // The sort key is (when, seq): `when` is non-negative, so unsigned order
  // matches the signed time order, and `seq` is handed out once per schedule
  // (At and RearmCurrent alike), so events due at the same instant fire in
  // the order they were scheduled — including events scheduled by separate
  // RunUntil calls. 64 bits of seq outlast any simulation.
  struct QueueEntry {
    uint64_t when_key;  // static_cast<uint64_t>(when)
    uint64_t seq;
    uint32_t node;
    uint32_t generation;

    TimeNs when() const { return static_cast<TimeNs>(when_key); }
  };
  static_assert(sizeof(QueueEntry) == 24);

  // (when, seq) is a strict total order — seq is unique — so pop order does
  // not depend on the heap shape and the 4-ary layout below is free to differ
  // from std::priority_queue's binary one.
  static bool EntryLess(const QueueEntry& a, const QueueEntry& b) {
    return a.when_key != b.when_key ? a.when_key < b.when_key : a.seq < b.seq;
  }

  // 4-ary min-heap: shallower than a binary heap and the four children sit
  // in adjacent cache lines, which is where RunUntil spends its time.
  static constexpr size_t kHeapArity = 4;
  // Below this size lazy deletion is cheap enough that compaction is not
  // worth the rebuild (also keeps small unit tests on the documented
  // pop-and-skip path).
  static constexpr size_t kPurgeMinEntries = 64;
  void QueuePush(const QueueEntry& entry);
  // Removes queue_.front(); the caller reads it first.
  void QueuePopTop();
  // Sifts `value` down from slot `i` (the slot is treated as a hole).
  void SiftDown(size_t i, const QueueEntry& value);
  // Drops every tombstone and re-heapifies (Floyd, O(n)). Cancellation-heavy
  // runs otherwise grow the heap several times past its live size, and sift
  // cost follows the total size, stale or not.
  void PurgeStaleEntries();

  uint32_t AcquireNode();
  void ReleaseNode(uint32_t index);
  // Pushes a heap entry for `index` at `when` and returns its handle.
  EventHandle Push(TimeNs when, uint32_t index);
  void Dispatch(const QueueEntry& top);
  bool HandleArmed(uint32_t node, uint32_t generation) const {
    return node < nodes_.size() && nodes_[node].generation == generation &&
           nodes_[node].armed;
  }
  void CancelEvent(uint32_t node, uint32_t generation);
  void NoteScheduled() {
    if (queue_.size() > max_pending_events_) {
      max_pending_events_ = queue_.size();
    }
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t cancelled_events_ = 0;
  uint64_t cancelled_popped_ = 0;
  size_t max_pending_events_ = 0;
  size_t stale_entries_ = 0;  // Tombstones currently sitting in the heap.
  size_t free_count_ = 0;
  uint32_t free_head_ = kNoNode;
  uint32_t current_node_ = kNoNode;  // Node being dispatched right now.
  bool current_rearmed_ = false;
  bool stopped_ = false;
  std::deque<EventNode> nodes_;
  std::vector<QueueEntry> queue_;  // 4-ary min-heap ordered by EntryLess.
};

inline bool EventHandle::valid() const {
  return sim_ != nullptr && sim_->HandleArmed(node_, generation_);
}

inline void EventHandle::Cancel() {
  if (sim_ != nullptr) {
    sim_->CancelEvent(node_, generation_);
  }
}

// A one-shot timer whose deadline is cheap to move: re-arming to a later
// time or cancelling is a field write, not a heap operation. One pooled
// event rides in the queue; if it fires before the logical deadline it
// re-arms itself in place (RearmCurrent), and a cancelled timer's event
// simply dies out when popped. Built for TCP retransmission timers, which
// classically move forward on every ACK — the cancel+reschedule pattern
// would otherwise fill the heap with tombstones.
//
// `fn` runs only when the logical deadline is reached while armed. It must
// not destroy the timer (defer destruction with After(0, ...) instead).
class DeadlineTimer {
 public:
  DeadlineTimer(Simulator* sim, std::function<void()> fn)
      : sim_(sim), fn_(std::move(fn)) {}
  ~DeadlineTimer();

  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  // Arms the timer (or moves its deadline) to fire at `deadline`; clamped
  // to Now() if already past.
  void Schedule(TimeNs deadline);
  // Disarms. The in-queue event, if any, is skipped when it pops.
  void Cancel() { armed_ = false; }
  bool armed() const { return armed_; }

 private:
  void Fire();

  Simulator* sim_;
  std::function<void()> fn_;
  TimeNs deadline_ = 0;   // When fn_ should logically run.
  TimeNs event_at_ = 0;   // When the in-queue event actually pops.
  EventHandle event_;
  bool armed_ = false;
  bool event_live_ = false;
};

// Repeats a callback at a fixed period until cancelled. Used for control
// loops (slow-path congestion control every tau, utilization monitoring).
// Steady-state firing re-arms the same pooled event node in place, so a
// running task costs no allocations after Start().
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, TimeNs period, std::function<void()> fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }
  void set_period(TimeNs period) { period_ = period; }

 private:
  void Fire();

  Simulator* sim_;
  TimeNs period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventHandle next_;
};

}  // namespace tas

#endif  // SRC_SIM_SIMULATOR_H_
