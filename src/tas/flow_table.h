// Flat flow-state storage: SwissTable-style group-probed 4-tuple hash table
// + dense slab of hot/cold-split Flow slots with generation-checked ids.
//
// The paper's capacity argument (§3.1, Table 3) is that per-flow state is
// small enough to keep huge flow counts cache-resident. At the million-flow
// scale the lookup structure itself becomes the bottleneck (FlexTOE,
// Laminar), so the table probes 16-byte control groups: one cache line of
// ctrl bytes answers "which of these 16 slots might hold the key" with a
// handful of 64-bit SWAR ops before any Entry is touched.
//
// FlowTable
//   Power-of-two capacity in 16-slot groups, starting at one group so a
//   host pays for the flows it holds, not for a table sized in advance.
//   Each ctrl byte is either kEmptyByte (0x80), kDeletedByte (0xFE), or a
//   7-bit H2 fingerprint of the key's hash (high bit clear). Lookups
//   triangular-probe across groups — match H2 within the group, confirm on
//   the full key, stop at the first group containing an empty byte.
//
//   When live + tombstone occupancy would pass 7/8, Insert rebuilds the
//   table in one step: every live entry is placed again into fresh arrays,
//   at double the capacity, or at the same capacity when tombstones (not
//   live entries) drove occupancy over the bound (tombstone drift, counted
//   in stats().drift_rebuilds). Erase tombstones its slot; Insert reuses
//   the first tombstone on its probe path. The arrays a rebuild replaces
//   are kept as spares, so a drift rebuild at the capacity of the previous
//   rebuild reuses them: steady-state churn, drift rebuilds included,
//   performs zero allocations (bench/micro_alloc audits both).
//
// FlowSlab
//   Fixed 64-slot chunks so Flow addresses are stable across growth (the
//   fast path holds `Flow&` across calls). Each chunk is one allocation: the
//   compact hot Flow records in one contiguous array, their cold side
//   records (FlowCold: payload ring storage, CC instances, teardown FSM
//   bookkeeping) in a parallel array, the slot generations and a 64-bit
//   live mask. The per-packet header path's working set per flow is the hot
//   struct only, and a host with a few dozen flows holds one ~19 KB chunk.
//   Slots are recycled through a free list; each slot carries a generation
//   that is bumped on Free, and FlowIds encode (generation << 20 | slot), so
//   a stale id held by the slow path's pending scan or an app resolves to
//   nullptr instead of a recycled flow.
#ifndef SRC_TAS_FLOW_TABLE_H_
#define SRC_TAS_FLOW_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/packet.h"
#include "src/tas/flow.h"
#include "src/tas/flow_state.h"
#include "src/util/stats.h"

namespace tas {

// FlowId bit layout. 20 bits of slot index (1M concurrent flows, the ROADMAP
// scale target) and 12 bits of generation. All valid ids differ from
// kInvalidFlow (~0) because the slab never reaches slot 0xFFFFF: growth past
// that is a fatal error in every build, not an id that silently aliases.
inline constexpr int kFlowSlotBits = 20;
inline constexpr uint32_t kFlowSlotMask = (1u << kFlowSlotBits) - 1;
inline constexpr uint32_t kFlowGenMask = (1u << (32 - kFlowSlotBits)) - 1;

inline uint32_t FlowSlotOf(FlowId id) { return id & kFlowSlotMask; }
inline uint32_t FlowGenOf(FlowId id) { return (id >> kFlowSlotBits) & kFlowGenMask; }
inline FlowId MakeFlowId(uint32_t slot, uint32_t generation) {
  return ((generation & kFlowGenMask) << kFlowSlotBits) | (slot & kFlowSlotMask);
}

// Probe / occupancy statistics the MetricRegistry exports (tas.flow_table.*).
// `probes` counts GROUPS examined (16 slots per step), not individual slots.
struct FlowTableStats {
  uint64_t lookups = 0;           // Find calls (hit or miss).
  uint64_t probes = 0;            // Total group-probe steps across lookups.
  uint64_t max_probe = 0;         // Longest single lookup, in groups.
  uint64_t rehashes = 0;          // Rebuilds (growth + drift).
  uint64_t drift_rebuilds = 0;    // Same-capacity rebuilds (tombstone drift).
  uint64_t tombstones_reused = 0;
};

class FlowTable {
 public:
  static constexpr size_t kGroupSize = 16;

  explicit FlowTable(size_t initial_capacity = kGroupSize);

  // Returns the stored id, or kInvalidFlow. Records probe-length stats.
  FlowId Find(const FlowKey& key) const;
  // Inserts a new key (must not be present); reuses the first tombstone on
  // the probe path. May rebuild the table first (growth allocates; a drift
  // rebuild reuses the spare arrays when their capacity matches).
  void Insert(const FlowKey& key, FlowId id);
  // Marks the key's slot as a tombstone. Returns false if absent.
  bool Erase(const FlowKey& key);

  size_t size() const { return size_; }
  size_t capacity() const { return ctrl_.size(); }
  size_t tombstones() const { return tombstones_; }
  double LoadFactor() const {
    return ctrl_.empty() ? 0.0 : static_cast<double>(size()) / static_cast<double>(ctrl_.size());
  }
  const FlowTableStats& stats() const { return stats_; }
  double AvgProbeLength() const {
    return stats_.lookups == 0
               ? 0.0
               : static_cast<double>(stats_.probes) / static_cast<double>(stats_.lookups);
  }
  // Probe-length distribution (groups per Find); exported as p50/p99 gauges.
  const LogHistogram& probe_hist() const { return probe_hist_; }

 private:
  // Ctrl byte encoding (absl-style): full slots hold the 7-bit H2
  // fingerprint (high bit clear); specials have the high bit set and are
  // distinguished by low bits so SWAR masks stay exact (no false positives).
  static constexpr uint8_t kEmptyByte = 0x80;    // 0b1000'0000
  static constexpr uint8_t kDeletedByte = 0xFE;  // 0b1111'1110

  struct Entry {
    FlowKey key;
    FlowId id;
  };

  static bool IsFull(uint8_t c) { return (c & 0x80) == 0; }

  // Slot index of `key`, or ~0 when absent; adds the groups examined to
  // *probe.
  size_t FindSlot(const FlowKey& key, uint64_t hash, uint64_t* probe) const;
  // Writes the key into the first empty or deleted slot on its probe path
  // (no occupancy check; Insert rebuilds first when needed).
  void Place(const FlowKey& key, FlowId id, uint64_t hash);
  // Places every live entry again into arrays of `new_capacity`; the
  // replaced arrays become the spares.
  void Rebuild(size_t new_capacity);

  std::vector<uint8_t> ctrl_;        // Ctrl bytes ...
  std::vector<Entry> entries_;       // ... and key/id slots.
  std::vector<uint8_t> spare_ctrl_;  // Arrays the last rebuild replaced.
  std::vector<Entry> spare_entries_;
  size_t size_ = 0;                  // Live entries.
  size_t tombstones_ = 0;            // Deleted slots.
  mutable FlowTableStats stats_;
  mutable LogHistogram probe_hist_;
};

// Cold slow-path side record: everything a million cache-resident flows do
// NOT need per fast-path packet. Declared in flow.h; stored here in a
// parallel per-chunk array so hot Flow records stay contiguous.
class FlowSlab {
 public:
  static constexpr size_t kChunkSlots = 64;  // One bit each in Chunk::live.

  // Takes a slot from the free list (or appends one) and returns its current
  // id. The Flow in the slot is in freshly Reset() state.
  FlowId Allocate();
  // Resets the flow, bumps the slot generation (staling outstanding ids) and
  // recycles the slot. `id` must be live.
  void Free(FlowId id);

  // Generation-checked resolve: nullptr for stale or out-of-range ids.
  Flow* Get(FlowId id) {
    const uint32_t slot = FlowSlotOf(id);
    if (slot >= slot_count_) return nullptr;
    Chunk& c = ChunkOf(slot);
    const size_t i = slot % kChunkSlots;
    if (!c.Live(i) || c.generation[i] != FlowGenOf(id)) return nullptr;
    return &c.flows[i];
  }
  const Flow* Get(FlowId id) const { return const_cast<FlowSlab*>(this)->Get(id); }

  // Iteration support for samplers / debug dumps.
  size_t slot_count() const { return slot_count_; }
  bool SlotLive(uint32_t slot) const {
    return slot < slot_count_ && ChunkOf(slot).Live(slot % kChunkSlots);
  }
  Flow& SlotFlow(uint32_t slot) { return ChunkOf(slot).flows[slot % kChunkSlots]; }
  FlowId SlotId(uint32_t slot) const {
    return MakeFlowId(slot, ChunkOf(slot).generation[slot % kChunkSlots]);
  }

  size_t live() const { return live_; }
  size_t capacity_slots() const { return chunks_.size() * kChunkSlots; }

 private:
  // Hot Flow records and cold side records live in parallel arrays: the fast
  // path walks `flows` without pulling payload storage / CC state / teardown
  // bookkeeping into cache. A chunk is allocated whole and never moves, so
  // slot recycling stays allocation-free and Flow&/FlowCold& stay stable for
  // the lifetime of the slab.
  struct Chunk {
    Chunk();
    bool Live(size_t i) const { return (live >> i) & 1; }

    Flow flows[kChunkSlots];
    FlowCold cold[kChunkSlots];
    uint32_t generation[kChunkSlots] = {};
    uint64_t live = 0;  // Bit i set: slot i holds a flow.
  };

  Chunk& ChunkOf(uint32_t slot) { return *chunks_[slot / kChunkSlots]; }
  const Chunk& ChunkOf(uint32_t slot) const { return *chunks_[slot / kChunkSlots]; }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint32_t> free_slots_;
  size_t slot_count_ = 0;
  size_t live_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_FLOW_TABLE_H_
