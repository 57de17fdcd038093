#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace tas {

void Simulator::BucketAppend(Bucket& bucket, const QueueEntry& entry) {
  if (bucket.tail == kNoBlock || blocks_[bucket.tail].count == kBlockEntries) {
    const uint32_t index = free_block_;  // Never empty: see kSpareBlocks.
    Block& block = blocks_[index];
    free_block_ = block.next;
    block.next = kNoBlock;
    block.count = 0;
    if (bucket.tail == kNoBlock) {
      bucket.head = index;
    } else {
      blocks_[bucket.tail].next = index;
    }
    bucket.tail = index;
  }
  Block& tail = blocks_[bucket.tail];
  tail.entries[tail.count++] = entry;
}

void Simulator::ReleaseBlock(uint32_t index) {
  blocks_[index].next = free_block_;
  free_block_ = index;
}

void Simulator::QueueInsert(const QueueEntry& entry) {
  const uint64_t diff = entry.when_key ^ last_;
  if (diff == 0) {
    BucketAppend(current_, entry);
    return;
  }
  const int bit = static_cast<int>(std::bit_width(diff)) - 1;
  Bucket& bucket = far_[bit];
  BucketAppend(bucket, entry);
  bucket.min = std::min(bucket.min, entry.when_key);
  occupied_ |= uint64_t{1} << bit;
}

bool Simulator::LoadDue(TimeNs until) {
  if (current_.head == kNoBlock) {
    if (occupied_ == 0) {
      return false;
    }
    const int bit = std::countr_zero(occupied_);
    Bucket& source = far_[bit];
    if (static_cast<TimeNs>(source.min) > until) {
      return false;  // Peek only: last_ stays put.
    }
    last_ = source.min;
    occupied_ &= ~(uint64_t{1} << bit);
    const Bucket moving = source;
    source = Bucket{};
    if (moving.head == moving.tail && blocks_[moving.head].count == 1) {
      current_ = moving;  // A lone entry: its block becomes the current bucket.
      return true;
    }
    // Every entry lands strictly below `bit`, so the chain being drained is
    // never appended to; each drained block goes back to the pool at once.
    for (uint32_t b = moving.head; b != kNoBlock;) {
      const Block& block = blocks_[b];
      for (uint32_t i = 0; i < block.count; ++i) {
        QueueInsert(block.entries[i]);
      }
      const uint32_t next = block.next;
      ReleaseBlock(b);
      b = next;
    }
  }
  return static_cast<TimeNs>(last_) <= until;
}

Simulator::QueueEntry Simulator::PopCurrent() {
  Block& block = blocks_[current_.head];
  const QueueEntry entry = block.entries[current_pos_++];
  if (current_pos_ == block.count) {
    // Consumed all that was written: only the tail block can be partial.
    const uint32_t next = block.next;
    ReleaseBlock(current_.head);
    current_.head = next;
    if (next == kNoBlock) {
      current_.tail = kNoBlock;
    }
    current_pos_ = 0;
  }
  --size_;
  return entry;
}

size_t Simulator::PurgeBucket(Bucket& bucket, uint32_t first) {
  if (bucket.head == kNoBlock) {
    return 0;
  }
  // Compact in place: the write cursor trails the read cursor.
  uint32_t write_block = bucket.head;
  uint32_t write_pos = 0;
  uint64_t min = ~uint64_t{0};
  size_t dropped = 0;
  for (uint32_t b = bucket.head, i = first; b != kNoBlock; b = blocks_[b].next, i = 0) {
    for (; i < blocks_[b].count; ++i) {
      const QueueEntry e = blocks_[b].entries[i];
      if (!HandleArmed(e.node, e.generation)) {
        ++dropped;
        continue;
      }
      if (write_pos == kBlockEntries) {
        write_block = blocks_[write_block].next;
        write_pos = 0;
      }
      blocks_[write_block].entries[write_pos++] = e;
      min = std::min(min, e.when_key);
    }
  }
  uint32_t spare;
  if (write_pos == 0) {  // No survivors.
    spare = bucket.head;
    bucket = Bucket{};
  } else {
    spare = blocks_[write_block].next;
    blocks_[write_block].next = kNoBlock;
    blocks_[write_block].count = write_pos;
    bucket.tail = write_block;
    bucket.min = min;
  }
  while (spare != kNoBlock) {
    const uint32_t next = blocks_[spare].next;
    ReleaseBlock(spare);
    spare = next;
  }
  return dropped;
}

void Simulator::PurgeStaleEntries() {
  size_t dropped = PurgeBucket(current_, current_pos_);
  current_pos_ = 0;
  for (uint32_t bit = 0; bit < kFarBuckets; ++bit) {
    dropped += PurgeBucket(far_[bit], 0);
    if (far_[bit].head == kNoBlock) {
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
    const size_t want = size_ / kBlockEntries + kSpareBlocks;
    if (blocks_.size() < want) {
      // A new high-water mark: top the block pool up to the bound.
      const size_t old_size = blocks_.size();
      blocks_.resize(std::max(want, old_size * 2));
      for (size_t b = blocks_.size(); b-- > old_size;) {
        ReleaseBlock(static_cast<uint32_t>(b));
      }
    }
  }
  const uint32_t generation = Node(index).generation;
  QueueInsert(QueueEntry{static_cast<uint64_t>(when), index, generation});
  return EventHandle(this, index, generation);
}

EventHandle Simulator::At(TimeNs when, EventFn fn) {
  const uint32_t index = AcquireNode();
  EventNode& node = Node(index);
  node.fn = std::move(fn);
  node.armed = true;
  return Push(when, index);
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
    const QueueEntry top = PopCurrent();
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
