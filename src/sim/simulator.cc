#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "src/sim/context.h"

namespace tas {

Simulator::Simulator() : context_(std::make_unique<ExperimentContext>()) {}

Simulator::~Simulator() = default;

void Simulator::Append(Chain& chain, uint32_t cell) {
  cells_[cell].next = kNoCell;
  if (chain.tail == kNoCell) {
    chain.head = cell;
  } else {
    cells_[chain.tail].next = cell;
  }
  chain.tail = cell;
}

void Simulator::QueueInsert(uint32_t cell) {
  const uint64_t when = cells_[cell].entry.when_key;
  const uint64_t diff = when ^ last_;
  if (diff <= kWindowMask) {
    const uint32_t slot = static_cast<uint32_t>(when & kWindowMask);
    Append(slots_[slot], cell);
    slot_bits_[slot >> 6] |= uint64_t{1} << (slot & 63);
    slot_summary_ |= uint64_t{1} << (slot >> 6);
    return;
  }
  const int bit = static_cast<int>(std::bit_width(diff)) - 1;
  FarBucket& bucket = far_[bit];
  Append(bucket.chain, cell);
  bucket.min = std::min(bucket.min, when);
  occupied_ |= uint64_t{1} << bit;
}

void Simulator::Refill(int bit) {
  FarBucket& source = far_[bit];
  last_ = source.min;
  occupied_ &= ~(uint64_t{1} << bit);
  uint32_t cell = source.chain.head;
  source = FarBucket{};
  ++refills_;
  // Every entry lands in the window or strictly below `bit`, so the chain
  // being walked is never appended to.
  while (cell != kNoCell) {
    const uint32_t next = cells_[cell].next;
    QueueInsert(cell);
    ++entries_moved_;
    cell = next;
  }
}

bool Simulator::LoadDue(TimeNs until) {
  if (slot_summary_ == 0) {
    if (occupied_ == 0) {
      return false;
    }
    const int bit = std::countr_zero(occupied_);
    if (static_cast<TimeNs>(far_[bit].min) > until) {
      return false;  // Peek only: last_ stays put.
    }
    Refill(bit);
  }
  const uint32_t word = static_cast<uint32_t>(std::countr_zero(slot_summary_));
  due_slot_ = word << 6 | static_cast<uint32_t>(std::countr_zero(slot_bits_[word]));
  return static_cast<TimeNs>((last_ & ~kWindowMask) | due_slot_) <= until;
}

Simulator::QueueEntry Simulator::PopDue() {
  Chain& chain = slots_[due_slot_];
  const uint32_t cell = chain.head;
  Cell& c = cells_[cell];
  const QueueEntry entry = c.entry;
  chain.head = c.next;
  if (chain.head == kNoCell) {
    chain.tail = kNoCell;
    uint64_t& word = slot_bits_[due_slot_ >> 6];
    word &= ~(uint64_t{1} << (due_slot_ & 63));
    if (word == 0) {
      slot_summary_ &= ~(uint64_t{1} << (due_slot_ >> 6));
    }
  }
  c.next = free_cell_;
  free_cell_ = cell;
  --size_;
  return entry;
}

size_t Simulator::PurgeChain(Chain& chain, uint64_t& min) {
  size_t dropped = 0;
  uint32_t cell = chain.head;
  chain = Chain{};
  while (cell != kNoCell) {
    const uint32_t next = cells_[cell].next;
    const QueueEntry& e = cells_[cell].entry;
    if (HandleArmed(e.node, e.generation)) {
      const uint64_t when = e.when_key;
      min = std::min(min, when);
      Append(chain, cell);
    } else {
      cells_[cell].next = free_cell_;
      free_cell_ = cell;
      ++dropped;
    }
    cell = next;
  }
  return dropped;
}

void Simulator::PurgeStaleEntries() {
  size_t dropped = 0;
  for (uint32_t word = 0; word < kWindowWords; ++word) {
    for (uint64_t bits = slot_bits_[word]; bits != 0; bits &= bits - 1) {
      const uint32_t slot = word << 6 | static_cast<uint32_t>(std::countr_zero(bits));
      uint64_t unused = 0;
      dropped += PurgeChain(slots_[slot], unused);
      if (slots_[slot].head == kNoCell) {
        slot_bits_[word] &= ~(uint64_t{1} << (slot & 63));
      }
    }
    if (slot_bits_[word] == 0) {
      slot_summary_ &= ~(uint64_t{1} << word);
    }
  }
  for (uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const int bit = std::countr_zero(bits);
    FarBucket& bucket = far_[bit];
    bucket.min = ~uint64_t{0};
    dropped += PurgeChain(bucket.chain, bucket.min);
    if (bucket.chain.head == kNoCell) {
      occupied_ &= ~(uint64_t{1} << bit);
    }
  }
  cancelled_popped_ += dropped;  // Retired here instead of at pop.
  size_ -= dropped;
  stale_entries_ = 0;
}

uint32_t Simulator::AcquireNode() {
  if (free_head_ != kNoNode) {
    const uint32_t index = free_head_;
    EventNode& node = Node(index);
    free_head_ = node.next_free;
    node.next_free = kNoNode;
    --free_count_;
    return index;
  }
  if ((node_count_ & kNodeChunkMask) == 0) {
    node_chunks_.push_back(std::make_unique<EventNode[]>(kNodeChunkMask + 1));
  }
  return node_count_++;
}

void Simulator::ReleaseNode(uint32_t index) {
  EventNode& node = Node(index);
  node.fn.reset();  // Destroys captures now (returns pooled packets etc).
  ++node.generation;
  node.armed = false;
  node.next_free = free_head_;
  free_head_ = index;
  ++free_count_;
}

EventHandle Simulator::Push(TimeNs when, uint32_t index) {
  TAS_CHECK(when >= now_);
  if (++size_ > max_pending_events_) {
    max_pending_events_ = size_;
    if (cells_.size() < size_) {
      // A new high-water mark: grow the cell pool (every queued entry holds
      // exactly one cell, so the pool never runs dry below the mark).
      const size_t old_size = cells_.size();
      cells_.resize(std::max<size_t>(64, old_size * 2));
      for (size_t c = cells_.size(); c-- > old_size;) {
        cells_[c].next = free_cell_;
        free_cell_ = static_cast<uint32_t>(c);
      }
    }
  }
  const uint32_t generation = Node(index).generation;
  const uint32_t cell = free_cell_;
  free_cell_ = cells_[cell].next;
  cells_[cell].entry = QueueEntry{static_cast<uint64_t>(when), index, generation};
  QueueInsert(cell);
  return EventHandle(this, index, generation);
}

EventHandle Simulator::RearmCurrent(TimeNs when) {
  TAS_CHECK(current_node_ != kNoNode) << "RearmCurrent outside event dispatch";
  TAS_CHECK(!current_rearmed_) << "RearmCurrent called twice in one dispatch";
  current_rearmed_ = true;
  Node(current_node_).armed = true;
  return Push(when, current_node_);
}

void Simulator::CancelEvent(uint32_t index, uint32_t generation) {
  if (index >= node_count_) {
    return;
  }
  EventNode& node = Node(index);
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
  ++stale_entries_;  // The queue entry is now a tombstone.
  if (stale_entries_ * 2 > size_ && size_ >= kPurgeMinEntries) {
    PurgeStaleEntries();
  }
}

void Simulator::Dispatch(const QueueEntry& top) {
  const uint32_t index = top.node;
  EventNode& node = Node(index);  // Chunked slab: stable across growth.
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

uint64_t Simulator::Drain(TimeNs until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!stopped_ && LoadDue(until)) {
    const QueueEntry top = PopDue();
    now_ = top.when();
    const EventNode& node = Node(top.node);
    if (node.generation != top.generation || !node.armed) {
      ++cancelled_popped_;  // Lazy deletion: cancelled or recycled entry.
      --stale_entries_;
      continue;
    }
    Dispatch(top);
    ++executed;
  }
  return executed;
}

uint64_t Simulator::RunUntil(TimeNs until) {
  const uint64_t executed = Drain(until);
  if (now_ < until && !stopped_) {
    now_ = until;
  }
  return executed;
}

uint64_t Simulator::Run() { return Drain(std::numeric_limits<TimeNs>::max()); }

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
