#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace tas {

void Simulator::QueuePush(const QueueEntry& entry) {
  // Hole-sift: bubble the insertion point up, then write the entry once.
  size_t i = queue_.size();
  queue_.push_back(entry);
  while (i > 0) {
    const size_t parent = (i - 1) / kHeapArity;
    if (!EntryLess(entry, queue_[parent])) {
      break;
    }
    queue_[i] = queue_[parent];
    i = parent;
  }
  queue_[i] = entry;
}

void Simulator::QueuePopTop() {
  const QueueEntry last = queue_.back();
  queue_.pop_back();
  if (!queue_.empty()) {
    SiftDown(0, last);
  }
}

void Simulator::SiftDown(size_t i, const QueueEntry& value) {
  const size_t n = queue_.size();
  for (;;) {
    const size_t first = i * kHeapArity + 1;
    if (first >= n) {
      break;
    }
    const size_t limit = std::min(first + kHeapArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < limit; ++c) {
      if (EntryLess(queue_[c], queue_[best])) {
        best = c;
      }
    }
    if (!EntryLess(queue_[best], value)) {
      break;
    }
    queue_[i] = queue_[best];
    i = best;
  }
  queue_[i] = value;
}

void Simulator::PurgeStaleEntries() {
  size_t kept = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const QueueEntry e = queue_[i];
    if (HandleArmed(e.node, e.generation)) {
      queue_[kept++] = e;
    }
  }
  cancelled_popped_ += queue_.size() - kept;  // Retired here instead of at pop.
  queue_.resize(kept);
  stale_entries_ = 0;
  if (kept > 1) {
    for (size_t i = (kept - 2) / kHeapArity + 1; i-- > 0;) {
      const QueueEntry e = queue_[i];  // Copy: SiftDown writes through slot i.
      SiftDown(i, e);
    }
  }
}

uint32_t Simulator::AcquireNode() {
  if (free_head_ != kNoNode) {
    const uint32_t index = free_head_;
    free_head_ = nodes_[index].next_free;
    nodes_[index].next_free = kNoNode;
    --free_count_;
    return index;
  }
  nodes_.emplace_back();
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void Simulator::ReleaseNode(uint32_t index) {
  EventNode& node = nodes_[index];
  node.fn.reset();  // Destroys captures now (returns pooled packets etc).
  ++node.generation;
  node.armed = false;
  node.next_free = free_head_;
  free_head_ = index;
  ++free_count_;
}

EventHandle Simulator::Push(TimeNs when, uint32_t index) {
  TAS_CHECK(when >= now_);
  const uint32_t generation = nodes_[index].generation;
  QueuePush(QueueEntry{static_cast<uint64_t>(when), next_seq_++, index, generation});
  NoteScheduled();
  return EventHandle(this, index, generation);
}

EventHandle Simulator::At(TimeNs when, EventFn fn) {
  const uint32_t index = AcquireNode();
  EventNode& node = nodes_[index];
  node.fn = std::move(fn);
  node.armed = true;
  return Push(when, index);
}

EventHandle Simulator::RearmCurrent(TimeNs when) {
  TAS_CHECK(current_node_ != kNoNode) << "RearmCurrent outside event dispatch";
  TAS_CHECK(!current_rearmed_) << "RearmCurrent called twice in one dispatch";
  current_rearmed_ = true;
  nodes_[current_node_].armed = true;
  return Push(when, current_node_);
}

void Simulator::CancelEvent(uint32_t index, uint32_t generation) {
  if (index >= nodes_.size()) {
    return;
  }
  EventNode& node = nodes_[index];
  if (node.generation != generation || !node.armed) {
    return;
  }
  node.armed = false;
  ++cancelled_events_;
  if (index == current_node_) {
    // Cancelling a just-rearmed node from inside its own callback: the
    // dispatch loop still owns the closure, so only invalidate the queue
    // entry here and let Dispatch() release the node after fn returns.
    ++node.generation;
    current_rearmed_ = false;
  } else {
    ReleaseNode(index);
  }
  ++stale_entries_;  // The heap entry is now a tombstone.
  if (stale_entries_ * 2 > queue_.size() && queue_.size() >= kPurgeMinEntries) {
    PurgeStaleEntries();
  }
}

void Simulator::Dispatch(const QueueEntry& top) {
  const uint32_t index = top.node;
  EventNode& node = nodes_[index];  // Deque: stable across mid-dispatch growth.
  node.armed = false;
  ++node.generation;  // Fired: handles must report not-pending.
  current_node_ = index;
  current_rearmed_ = false;
  node.fn();
  if (!current_rearmed_) {
    ReleaseNode(index);
  }
  current_node_ = kNoNode;
  ++events_executed_;
}

uint64_t Simulator::RunUntil(TimeNs until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    const QueueEntry top = queue_.front();
    if (top.when() > until) {
      break;
    }
    QueuePopTop();
    now_ = top.when();
    const EventNode& node = nodes_[top.node];
    if (node.generation != top.generation || !node.armed) {
      ++cancelled_popped_;  // Lazy deletion: cancelled or recycled entry.
      --stale_entries_;
      continue;
    }
    Dispatch(top);
    ++executed;
  }
  if (now_ < until && !stopped_) {
    now_ = until;
  }
  return executed;
}

uint64_t Simulator::Run() {
  stopped_ = false;
  uint64_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    const QueueEntry top = queue_.front();
    QueuePopTop();
    now_ = top.when();
    const EventNode& node = nodes_[top.node];
    if (node.generation != top.generation || !node.armed) {
      ++cancelled_popped_;
      --stale_entries_;
      continue;
    }
    Dispatch(top);
    ++executed;
  }
  return executed;
}

DeadlineTimer::~DeadlineTimer() {
  armed_ = false;
  if (event_live_) {
    event_.Cancel();  // The pending closure captures `this`; kill it now.
    event_live_ = false;
  }
}

void DeadlineTimer::Schedule(TimeNs deadline) {
  if (deadline < sim_->Now()) {
    deadline = sim_->Now();
  }
  deadline_ = deadline;
  armed_ = true;
  if (event_live_) {
    if (event_at_ <= deadline) {
      return;  // The event fires early and re-arms itself to deadline_.
    }
    event_.Cancel();  // Deadline moved earlier: rare, pay the tombstone.
  }
  event_ = sim_->At(deadline, [this] { Fire(); });
  event_at_ = deadline;
  event_live_ = true;
}

void DeadlineTimer::Fire() {
  event_live_ = false;
  if (!armed_) {
    return;  // Lazily cancelled; the event dies out here.
  }
  if (sim_->Now() < deadline_) {
    // Deadline moved later since this event was scheduled: chase it without
    // building a new closure.
    event_ = sim_->RearmCurrent(deadline_);
    event_at_ = deadline_;
    event_live_ = true;
    return;
  }
  armed_ = false;
  fn_();
}

PeriodicTask::PeriodicTask(Simulator* sim, TimeNs period, std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  TAS_CHECK(period > 0);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  next_ = sim_->After(period_, [this] { Fire(); });
}

void PeriodicTask::Stop() {
  running_ = false;
  next_.Cancel();
}

void PeriodicTask::Fire() {
  if (!running_) {
    return;
  }
  fn_();
  if (running_) {
    // Re-arm the pooled node in place instead of building a fresh closure
    // every period (zero allocations in steady state).
    next_ = sim_->RearmCurrent(sim_->Now() + period_);
  }
}

}  // namespace tas
