#include "src/tas/flow_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/logging.h"

namespace tas {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t HashKey(const FlowKey& key) { return FlowKeyHash{}(key); }

constexpr uint64_t kLsbs = 0x0101010101010101ull;
constexpr uint64_t kMsbs = 0x8080808080808080ull;

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// High bit set in every byte of `w` equal to `b`. May rarely flag a byte
// adjacent to a true match (borrow propagation); callers follow every match
// with a full key compare, so false positives only cost that compare. Never
// flags empty/deleted bytes: their high bit survives the xor (fingerprints
// have it clear), which zeroes the ~x term.
uint64_t MatchByteMask(uint64_t w, uint8_t b) {
  const uint64_t x = w ^ (kLsbs * b);
  return (x - kLsbs) & ~x & kMsbs;
}

// Exact masks over the ctrl special encoding (see header): empty = 0x80 has
// bits 1 and 0 clear, deleted = 0xFE has bit 1 set / bit 0 clear, full bytes
// have bit 7 clear — so one shifted self-AND distinguishes them with no
// false positives (this is why the sentinels are 0x80/0xFE, not 0/1).
uint64_t MaskEmpty(uint64_t w) { return w & ~(w << 6) & kMsbs; }
uint64_t MaskEmptyOrDeleted(uint64_t w) { return w & ~(w << 7) & kMsbs; }

size_t ByteIndex(uint64_t mask) { return static_cast<size_t>(std::countr_zero(mask)) >> 3; }

constexpr size_t kNpos = ~static_cast<size_t>(0);

}  // namespace

FlowTable::FlowTable(size_t initial_capacity) {
  const size_t cap =
      RoundUpPow2(initial_capacity < kGroupSize ? kGroupSize : initial_capacity);
  ctrl_.assign(cap, kEmptyByte);
  entries_.resize(cap);
}

// Triangular probing over groups (cumulative offsets 1, 3, 6, ... visit
// every group exactly once while the group count is a power of two);
// terminates at the first group containing an empty byte.
size_t FlowTable::FindSlot(const FlowKey& key, uint64_t hash, uint64_t* probe) const {
  const uint8_t h2 = static_cast<uint8_t>(hash & 0x7F);
  const size_t ngroups = ctrl_.size() / kGroupSize;
  const size_t gmask = ngroups - 1;
  size_t g = (hash >> 7) & gmask;
  for (size_t step = 1; step <= ngroups; ++step) {
    ++*probe;
    const uint8_t* gp = ctrl_.data() + g * kGroupSize;
    const uint64_t lo = Load64(gp);
    const uint64_t hi = Load64(gp + 8);
    for (uint64_t m = MatchByteMask(lo, h2); m != 0; m &= m - 1) {
      const size_t idx = g * kGroupSize + ByteIndex(m);
      if (entries_[idx].key == key) return idx;
    }
    for (uint64_t m = MatchByteMask(hi, h2); m != 0; m &= m - 1) {
      const size_t idx = g * kGroupSize + 8 + ByteIndex(m);
      if (entries_[idx].key == key) return idx;
    }
    if ((MaskEmpty(lo) | MaskEmpty(hi)) != 0) return kNpos;
    g = (g + step) & gmask;
  }
  return kNpos;
}

FlowId FlowTable::Find(const FlowKey& key) const {
  ++stats_.lookups;
  uint64_t probe = 0;
  const size_t idx = FindSlot(key, HashKey(key), &probe);
  stats_.probes += probe;
  if (probe > stats_.max_probe) stats_.max_probe = probe;
  probe_hist_.Add(probe);
  return idx == kNpos ? kInvalidFlow : entries_[idx].id;
}

void FlowTable::Place(const FlowKey& key, FlowId id, uint64_t hash) {
  const uint8_t h2 = static_cast<uint8_t>(hash & 0x7F);
  const size_t ngroups = ctrl_.size() / kGroupSize;
  const size_t gmask = ngroups - 1;
  size_t g = (hash >> 7) & gmask;
  for (size_t step = 1; step <= ngroups; ++step) {
    const uint8_t* gp = ctrl_.data() + g * kGroupSize;
    // The first reusable byte in probe order: a tombstone earlier on the
    // chain is taken before a trailing empty slot, which is what keeps
    // steady-state erase+insert churn from growing occupancy.
    const uint64_t m_lo = MaskEmptyOrDeleted(Load64(gp));
    const uint64_t m_hi = MaskEmptyOrDeleted(Load64(gp + 8));
    if ((m_lo | m_hi) != 0) {
      const size_t byte = m_lo != 0 ? ByteIndex(m_lo) : 8 + ByteIndex(m_hi);
      const size_t idx = g * kGroupSize + byte;
      if (ctrl_[idx] == kDeletedByte) {
        --tombstones_;
        ++stats_.tombstones_reused;
      }
      ctrl_[idx] = h2;
      entries_[idx].key = key;
      entries_[idx].id = id;
      return;
    }
    g = (g + step) & gmask;
  }
  TAS_LOG(FATAL) << "flow table full (occupancy bound violated)";
}

void FlowTable::Insert(const FlowKey& key, FlowId id) {
  // Keep live + tombstone occupancy under 7/8 so probe chains stay short and
  // the empty-group termination is always reachable.
  if ((size_ + tombstones_ + 1) * 8 > ctrl_.size() * 7) {
    // If occupancy is mostly tombstones, rebuilding at the same capacity is
    // enough (tombstone drift); only grow when live entries need the room.
    const bool drift = size_ * 8 <= ctrl_.size() * 7 / 2;
    if (drift) ++stats_.drift_rebuilds;
    Rebuild(drift ? ctrl_.size() : ctrl_.size() * 2);
  }
  Place(key, id, HashKey(key));
  ++size_;
}

bool FlowTable::Erase(const FlowKey& key) {
  uint64_t probe = 0;
  const size_t idx = FindSlot(key, HashKey(key), &probe);
  if (idx == kNpos) {
    return false;
  }
  ctrl_[idx] = kDeletedByte;
  ++tombstones_;
  --size_;
  return true;
}

void FlowTable::Rebuild(size_t new_capacity) {
  ++stats_.rehashes;
  ctrl_.swap(spare_ctrl_);
  entries_.swap(spare_entries_);
  if (ctrl_.size() == new_capacity) {
    // The arrays the last rebuild replaced fit: reuse them, so steady-state
    // churn with periodic drift rebuilds stays allocation-free.
    std::fill(ctrl_.begin(), ctrl_.end(), kEmptyByte);
  } else {
    // Release the spares before allocating, so a growth holds two tables at
    // its peak, not three.
    std::vector<uint8_t>().swap(ctrl_);
    std::vector<Entry>().swap(entries_);
    ctrl_.assign(new_capacity, kEmptyByte);
    entries_.resize(new_capacity);
  }
  tombstones_ = 0;
  for (size_t i = 0; i < spare_ctrl_.size(); ++i) {
    if (IsFull(spare_ctrl_[i])) {
      const Entry& e = spare_entries_[i];
      Place(e.key, e.id, HashKey(e.key));
    }
  }
}

FlowSlab::Chunk::Chunk() {
  for (size_t i = 0; i < kChunkSlots; ++i) {
    flows[i].BindCold(&cold[i]);
  }
}

FlowId FlowSlab::Allocate() {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ == capacity_slots()) {
      // Slot 0xFFFFF is reserved (its top generation would encode
      // kInvalidFlow) and 0x100000 would alias slot 0. Checked in every
      // build, once per chunk rather than per allocation.
      TAS_CHECK(slot_count_ + kChunkSlots <= kFlowSlotMask)
          << "flow slab exhausted at " << slot_count_ << " slots";
      chunks_.push_back(std::make_unique<Chunk>());
    }
    slot = static_cast<uint32_t>(slot_count_++);
  }
  Chunk& c = ChunkOf(slot);
  const size_t i = slot % kChunkSlots;
  c.live |= uint64_t{1} << i;
  ++live_;
  return MakeFlowId(slot, c.generation[i]);
}

void FlowSlab::Free(FlowId id) {
  Chunk* c = nullptr;
  size_t i = 0;
  const uint32_t slot = FlowSlotOf(id);
  if (slot < slot_count_) {
    Chunk& cand = ChunkOf(slot);
    i = slot % kChunkSlots;
    if (cand.Live(i) && cand.generation[i] == FlowGenOf(id)) c = &cand;
  }
  TAS_DCHECK(c != nullptr);
  if (c == nullptr) return;
  c->flows[i].Reset();
  c->generation[i] = (c->generation[i] + 1) & kFlowGenMask;
  c->live &= ~(uint64_t{1} << i);
  --live_;
  free_slots_.push_back(slot);
}

}  // namespace tas
