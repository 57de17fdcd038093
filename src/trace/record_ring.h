// RecordRing<T>: the recording side's one ring discipline (DESIGN.md §7).
//
// Every recorder that keeps "the most recent N records" — the per-host flow
// event and CPU span rings, the flight recorder's four streams, and the
// latency and causal tracers' in-flight records — holds them here, so they
// all follow the same rules:
//
//  * Fixed size. Capacity is rounded up to a power of two; the slots are
//    allocated by the first Append (a ring that never records holds no
//    memory), and Clear keeps them.
//  * Overwrite the oldest. A full ring evicts its oldest record to make room,
//    so what it retains is always the newest window. evicted() counts the
//    evicted records that were still live.
//  * Generation-checked ids. Every Append issues a fresh id (1, 2, ...; 0
//    never names a record). Find(id) returns the record only while it is
//    retained and not retired, so a late reference to an overwritten or
//    retired record is rejected as stale instead of touching its successor.
//  * Retire by id. A record that ends early (a finished or abandoned packet
//    or request) gives its slot back; it is skipped by iteration and no
//    longer counts as live.
//
// There is no policy option: every ring keeps the newest records.
#ifndef SRC_TRACE_RECORD_RING_H_
#define SRC_TRACE_RECORD_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tas {

template <typename T>
class RecordRing {
 public:
  explicit RecordRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
  }

  size_t capacity() const { return mask_ + 1; }
  // Slots holding storage: 0 until the first Append, capacity() after.
  size_t slots() const { return slots_.size(); }
  // Live records retained.
  size_t size() const { return live_; }
  // Id of the most recent Append, which is also the number of appends
  // since construction or the last Clear.
  uint64_t last_id() const { return next_id_ - 1; }
  // Live records overwritten because the ring was full.
  uint64_t evicted() const { return evicted_; }

  // Claims the slot for a new record (id last_id()) and returns it. When the
  // ring is full this evicts the oldest record; if that one was live,
  // `on_evict` sees it first. The returned slot still holds the evicted
  // record's contents: the caller assigns every field, and may reuse storage
  // the old record owned.
  template <typename OnEvict>
  T& Append(OnEvict&& on_evict) {
    if (slots_.empty()) {
      slots_.resize(capacity());
    }
    const uint64_t id = next_id_++;
    Slot& s = slots_[id & mask_];
    if (s.id != 0) {
      ++evicted_;
      on_evict(static_cast<const T&>(s.rec));
    } else {
      ++live_;
    }
    s.id = id;
    return s.rec;
  }
  T& Append() {
    return Append([](const T&) {});
  }

  // The live record `id`, or null if it was retired, overwritten, or never
  // issued.
  T* Find(uint64_t id) {
    Slot* s = SlotFor(id);
    return s != nullptr ? &s->rec : nullptr;
  }
  // Ends record `id` early. Returns false (and changes nothing) if it was
  // not live.
  bool Retire(uint64_t id) {
    Slot* s = SlotFor(id);
    if (s == nullptr) {
      return false;
    }
    s->id = 0;
    --live_;
    return true;
  }

  // Forgets every record and counter and restarts ids at 1; the slots keep
  // their storage.
  void Clear() {
    for (Slot& s : slots_) {
      s.id = 0;
    }
    next_id_ = 1;
    live_ = 0;
    evicted_ = 0;
  }

  // Calls f(record) for every live record, oldest first.
  template <typename F>
  void ForEach(F&& f) const {
    const uint64_t first = next_id_ > capacity() ? next_id_ - capacity() : 1;
    for (uint64_t id = first; id < next_id_; ++id) {
      const Slot& s = slots_[id & mask_];
      if (s.id == id) {
        f(s.rec);
      }
    }
  }

  // Live records, oldest first.
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(live_);
    ForEach([&out](const T& rec) { out.push_back(rec); });
    return out;
  }

 private:
  struct Slot {
    uint64_t id = 0;  // 0 = free or retired.
    T rec{};
  };

  Slot* SlotFor(uint64_t id) {
    if (id == 0 || slots_.empty()) {
      return nullptr;
    }
    Slot& s = slots_[id & mask_];
    return s.id == id ? &s : nullptr;
  }

  size_t mask_ = 0;
  std::vector<Slot> slots_;
  uint64_t next_id_ = 1;
  size_t live_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace tas

#endif  // SRC_TRACE_RECORD_RING_H_
