// Discrete-event simulation core.
//
// The paper evaluates TAS on a physical cluster plus ns-3 simulations; here
// every experiment runs on this event simulator. Events are (time, callback)
// entries in a monotone calendar queue; same-time ties fire in scheduling
// order (the queue keeps every chain in insertion order), so runs are fully
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

class ExperimentContext;
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
  // The calendar window covers the aligned 2^kWindowBits ns block holding
  // the queue's floor; times inside it pop in O(1) (DESIGN.md §8).
  static constexpr int kWindowBits = 12;

  // Every simulator owns its experiment's context (src/sim/context.h): its
  // own packet pool, tracing off until a host enables it.
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // The packet pool and tracers every device on this simulator shares.
  ExperimentContext& context() const { return *context_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()). The closure is
  // built directly in its pooled event node.
  template <typename F>
  EventHandle At(TimeNs when, F&& fn) {
    const uint32_t index = AcquireNode();
    EventNode& node = Node(index);
    node.fn.Emplace(std::forward<F>(fn));
    node.armed = true;
    return Push(when, index);
  }

  // Schedules `fn` to run `delay` after Now().
  template <typename F>
  EventHandle After(TimeNs delay, F&& fn) {
    return At(now_ + delay, std::forward<F>(fn));
  }

  // Like At(), but a `when` that already passed runs at Now() instead of
  // failing. Fault schedules installed mid-run rely on this: events whose
  // time predates installation apply immediately, in schedule order.
  template <typename F>
  EventHandle AtClamped(TimeNs when, F&& fn) {
    return At(when < now_ ? now_ : when, std::forward<F>(fn));
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

  // --- Queue-structure counters (DESIGN.md §8) ------------------------------
  // Times the calendar window ran dry and the lowest far bucket was
  // redistributed, and the entries those refills relinked. Pops per refill
  // (events_executed() / refills()) is the queue's amortization measure.
  uint64_t refills() const { return refills_; }
  uint64_t entries_moved() const { return entries_moved_; }

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
  // 4-byte aligned so that a linked queue cell packs into 20 bytes; read
  // `when_key` by value (it cannot bind to a uint64_t reference).
#pragma pack(push, 4)
  struct QueueEntry {
    uint64_t when_key;  // static_cast<uint64_t>(when)
    uint32_t node;
    uint32_t generation;

    TimeNs when() const { return static_cast<TimeNs>(when_key); }
  };
#pragma pack(pop)
  static_assert(sizeof(QueueEntry) == 16);

  // Monotone calendar queue. Every pending time is >= last_, the time of
  // the last refill's minimum (and so <= Now()). Times that share last_'s
  // bits above kWindowBits sit in the calendar window: one FIFO chain per
  // nanosecond, found through a 64-word occupancy bitmap and a summary word
  // over it, so a pop is two ctz's and an unlink. Any later time goes to
  // far bucket d, the bit at which it first differs from last_ (always
  // >= kWindowBits); each far bucket tracks its minimum as entries arrive.
  // Only when the whole window is empty does the lowest far bucket refill:
  // its minimum becomes last_ and its entries move, in order, into the new
  // window or into lower far buckets — all empty at that moment. A chain
  // therefore only ever receives entries in scheduling order, so same-time
  // events fire in the order they were scheduled without any tie-break
  // compare.
  //
  // Every queued entry, tombstones included, occupies one linked cell from
  // a single pool, so cells in use equal pending_events(). The pool grows
  // only when pending_events() sets a new high-water mark: no push ever
  // allocates once the pending count has peaked, whichever slots or far
  // buckets a clock crossing a new power of two happens to fill.
  static constexpr uint32_t kNoCell = 0xFFFFFFFFu;
  static constexpr uint32_t kWindowSlots = 1u << kWindowBits;
  static constexpr uint64_t kWindowMask = kWindowSlots - 1;
  static constexpr uint32_t kWindowWords = kWindowSlots / 64;
  static constexpr uint32_t kFarBuckets = 64;
  static_assert(kWindowWords == 64, "the summary word covers the bitmap");
  struct Cell {
    QueueEntry entry;
    uint32_t next;  // Next cell of the chain, or of the free list.
  };
  static_assert(sizeof(Cell) == 20);
  struct Chain {
    uint32_t head = kNoCell;
    uint32_t tail = kNoCell;
  };
  struct FarBucket {
    Chain chain;
    uint64_t min = ~uint64_t{0};  // Earliest time key queued.
  };
  // Below this size lazy deletion is cheap enough that compaction is not
  // worth the pass (also keeps small unit tests on the documented
  // pop-and-skip path).
  static constexpr size_t kPurgeMinEntries = 64;

  void Append(Chain& chain, uint32_t cell);
  // Files `cell` into its window slot or far bucket relative to last_.
  void QueueInsert(uint32_t cell);
  // Empties far bucket `bit` (the lowest occupied one, window empty) into
  // the window and lower far buckets, its minimum becoming last_.
  void Refill(int bit);
  // Points due_slot_ at the earliest entry if it is due at or before
  // `until` and returns whether one is. A refill commits last_ only when the
  // lowest far bucket's minimum is due: moving last_ past `until` would
  // strand a later At(t) with until <= t < minimum below the queue's floor.
  bool LoadDue(TimeNs until);
  // Removes due_slot_'s front entry; LoadDue() must have succeeded.
  QueueEntry PopDue();
  // Drops every tombstone, chain by chain, keeping survivors in order.
  // Cancellation-heavy runs otherwise grow the queue several times past its
  // live size, and refills move stale entries as well as live ones.
  void PurgeStaleEntries();
  // Filters one chain in place; returns the number of tombstones dropped
  // and lowers `min` to the earliest survivor.
  size_t PurgeChain(Chain& chain, uint64_t& min);

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

  // First, so the pool outlives the packets pending closures hold.
  std::unique_ptr<ExperimentContext> context_;
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
  uint64_t last_ = 0;      // Time key of the last refill's minimum.
  uint64_t slot_summary_ = 0;  // Bit w set: slot_bits_[w] is non-zero.
  uint64_t occupied_ = 0;      // Bit d set: far_[d] is non-empty.
  uint32_t due_slot_ = 0;      // Window slot LoadDue() found due.
  uint32_t free_cell_ = kNoCell;
  uint64_t refills_ = 0;
  uint64_t entries_moved_ = 0;
  std::array<uint64_t, kWindowWords> slot_bits_{};
  std::array<Chain, kWindowSlots> slots_;
  std::array<FarBucket, kFarBuckets> far_;
  std::vector<Cell> cells_;
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
