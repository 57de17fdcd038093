// Discrete-event simulation core.
//
// The paper evaluates TAS on a physical cluster plus ns-3 simulations; here
// every experiment runs on this event simulator. Events are (time, callback)
// entries in a monotone radix queue; same-time ties fire in scheduling order
// (the queue keeps every bucket in insertion order), so runs are fully
// deterministic.
//
// Hot-path memory discipline (DESIGN.md §8): closures live in a slab of
// pooled event nodes (EventFn keeps captures inline), the queue orders
// compact POD entries, and cancellation is a generation bump — steady-state
// scheduling performs zero heap allocations.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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
  // owns, e.g. an in-flight packet) is destroyed immediately; the queue
  // entry is lazily skipped when popped.
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
  size_t pending_events() const { return size_; }
  // High-water mark of pending_events() over the run (updated at schedule
  // time; a cheap dispatch-pressure metric for the trace layer).
  size_t max_pending_events() const { return max_pending_events_; }

  // --- Allocator-pressure counters (DESIGN.md §8) ---------------------------
  // Events disarmed via EventHandle::Cancel().
  uint64_t cancelled_events() const { return cancelled_events_; }
  // Stale queue entries retired: popped and skipped (lazy deletion catching
  // up) or dropped by a tombstone purge.
  uint64_t cancelled_popped() const { return cancelled_popped_; }
  // Event-node slab occupancy: total nodes ever created and how many sit on
  // the free list right now.
  size_t event_nodes_total() const { return node_count_; }
  size_t event_nodes_free() const { return free_count_; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;

  // One slab slot, recycled through an intrusive free list.
  struct EventNode {
    EventFn fn;
    uint32_t generation = 0;
    uint32_t next_free = kNoNode;
    bool armed = false;  // In the queue and not cancelled.
  };

  // The slab is a list of fixed 256-node chunks: a lookup is a shift, a
  // mask and two loads, and node addresses stay stable while dispatch grows
  // the slab mid-callback.
  static constexpr uint32_t kNodeChunkShift = 8;
  static constexpr uint32_t kNodeChunkMask = (1u << kNodeChunkShift) - 1;
  EventNode& Node(uint32_t index) {
    return node_chunks_[index >> kNodeChunkShift][index & kNodeChunkMask];
  }
  const EventNode& Node(uint32_t index) const {
    return node_chunks_[index >> kNodeChunkShift][index & kNodeChunkMask];
  }

  // What the queue orders: a 16-byte POD that names its node. Entries are
  // never removed early; a generation mismatch at pop time means the event
  // was cancelled (or the node recycled) and the entry is skipped. `when`
  // is non-negative, so unsigned order matches the signed time order.
  struct QueueEntry {
    uint64_t when_key;  // static_cast<uint64_t>(when)
    uint32_t node;
    uint32_t generation;

    TimeNs when() const { return static_cast<TimeNs>(when_key); }
  };
  static_assert(sizeof(QueueEntry) == 16);

  // Monotone radix queue. Every pending time is >= last_, the time of the
  // last extracted entry. The current bucket holds the entries due exactly
  // at last_ and pops them FIFO; far bucket d holds the entries whose time
  // first differs from last_ at bit d (its bit is set in occupied_) and
  // tracks its minimum as entries arrive. When the current bucket runs dry,
  // the lowest occupied far bucket's minimum becomes last_ and its entries
  // move, in order, into lower buckets — all empty at that moment. A bucket
  // therefore only ever receives entries in scheduling order, so same-time
  // events fire in the order they were scheduled without any tie-break
  // compare.
  //
  // Buckets are chains of fixed blocks drawn from one pool. Blocks in use
  // never exceed pending_events() / kBlockEntries + kSpareBlocks (at most
  // one partial block for each of the 65 buckets, plus the current bucket's
  // consumed prefix and the block a refill is draining), and the pool is
  // grown to that size whenever pending_events() sets a new high-water
  // mark. So no push ever allocates once the pending count has peaked —
  // whichever buckets a clock crossing a new power of two happens to fill.
  static constexpr uint32_t kNoBlock = 0xFFFFFFFFu;
  static constexpr uint32_t kBlockEntries = 32;
  static constexpr uint32_t kFarBuckets = 64;
  static constexpr size_t kSpareBlocks = kFarBuckets + 3;
  struct Block {
    QueueEntry entries[kBlockEntries];
    uint32_t next = kNoBlock;  // Next block of the bucket, or of the free list.
    uint32_t count = 0;        // Entries written.
  };
  struct Bucket {
    uint32_t head = kNoBlock;
    uint32_t tail = kNoBlock;
    uint64_t min = ~uint64_t{0};  // Earliest time key queued (far buckets).
  };
  // Below this size lazy deletion is cheap enough that compaction is not
  // worth the pass (also keeps small unit tests on the documented
  // pop-and-skip path).
  static constexpr size_t kPurgeMinEntries = 64;

  void QueueInsert(const QueueEntry& entry);
  void BucketAppend(Bucket& bucket, const QueueEntry& entry);
  void ReleaseBlock(uint32_t index);
  // Makes the current bucket non-empty if an entry is due at or before
  // `until` and returns whether one is. A refill commits last_ only when the
  // lowest bucket's minimum is due: moving last_ past `until` would strand a
  // later At(t) with until <= t < minimum below the queue's floor.
  bool LoadDue(TimeNs until);
  // Removes the current bucket's front entry; LoadDue() must have succeeded.
  QueueEntry PopCurrent();
  // Drops every tombstone, bucket by bucket, keeping survivors in order.
  // Cancellation-heavy runs otherwise grow the queue several times past its
  // live size, and refills move stale entries as well as live ones.
  void PurgeStaleEntries();
  // Filters one bucket whose live entries start at `first` in its head
  // block; returns the number of tombstones dropped.
  size_t PurgeBucket(Bucket& bucket, uint32_t first);

  uint32_t AcquireNode();
  void ReleaseNode(uint32_t index);
  // Queues an entry for `index` at `when` and returns its handle.
  EventHandle Push(TimeNs when, uint32_t index);
  // Pops and dispatches every entry due at or before `until`.
  uint64_t Drain(TimeNs until);
  void Dispatch(const QueueEntry& top);
  bool HandleArmed(uint32_t node, uint32_t generation) const {
    if (node >= node_count_) {
      return false;
    }
    const EventNode& n = Node(node);
    return n.generation == generation && n.armed;
  }
  void CancelEvent(uint32_t node, uint32_t generation);

  TimeNs now_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t cancelled_events_ = 0;
  uint64_t cancelled_popped_ = 0;
  size_t max_pending_events_ = 0;
  size_t stale_entries_ = 0;  // Tombstones currently sitting in the queue.
  size_t free_count_ = 0;
  uint32_t free_head_ = kNoNode;
  uint32_t node_count_ = 0;
  uint32_t current_node_ = kNoNode;  // Node being dispatched right now.
  bool current_rearmed_ = false;
  bool stopped_ = false;
  std::vector<std::unique_ptr<EventNode[]>> node_chunks_;

  size_t size_ = 0;        // Queued entries, tombstones included.
  uint64_t last_ = 0;      // Time key of the last extracted entry.
  uint64_t occupied_ = 0;  // Bit d set: far_[d] is non-empty.
  uint32_t current_pos_ = 0;  // Next entry to pop in current_'s head block.
  uint32_t free_block_ = kNoBlock;
  Bucket current_;
  std::array<Bucket, kFarBuckets> far_;
  std::vector<Block> blocks_;
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
// time or cancelling is a field write, not a queue operation. One pooled
// event rides in the queue; if it fires before the logical deadline it
// re-arms itself in place (RearmCurrent), and a cancelled timer's event
// simply dies out when popped. Built for TCP retransmission timers, which
// classically move forward on every ACK — the cancel+reschedule pattern
// would otherwise fill the queue with tombstones.
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
