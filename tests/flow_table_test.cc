// Tests for the flat open-addressing flow table and the generation-checked
// flow slab (src/tas/flow_table): insert/erase/rebuild churn with thousands of
// flows, stale-id rejection, tombstone reuse, and steady-state stats.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/tas/flow_table.h"
#include "src/util/rng.h"

namespace tas {
namespace {

FlowKey KeyOf(uint32_t i) {
  FlowKey key;
  key.local_port = static_cast<uint16_t>(1000 + (i % 40000));
  key.peer_ip = 0x0A000000u + (i / 40000) + (i << 7);
  key.peer_port = static_cast<uint16_t>(2000 + (i % 60000));
  return key;
}

TEST(FlowTableTest, InsertFindErase) {
  FlowTable table(16);
  const FlowKey a = KeyOf(1);
  const FlowKey b = KeyOf(2);
  EXPECT_EQ(table.Find(a), kInvalidFlow);
  table.Insert(a, MakeFlowId(7, 3));
  table.Insert(b, MakeFlowId(9, 0));
  EXPECT_EQ(table.Find(a), MakeFlowId(7, 3));
  EXPECT_EQ(table.Find(b), MakeFlowId(9, 0));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.Erase(a));
  EXPECT_FALSE(table.Erase(a));  // Already gone.
  EXPECT_EQ(table.Find(a), kInvalidFlow);
  EXPECT_EQ(table.Find(b), MakeFlowId(9, 0));  // Probe skips the tombstone.
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.tombstones(), 1u);
}

TEST(FlowTableTest, TombstoneReusedOnReinsert) {
  FlowTable table(16);
  const FlowKey key = KeyOf(42);
  table.Insert(key, MakeFlowId(1, 0));
  ASSERT_TRUE(table.Erase(key));
  EXPECT_EQ(table.tombstones(), 1u);
  table.Insert(key, MakeFlowId(1, 1));
  EXPECT_EQ(table.tombstones(), 0u);  // Slot recycled, not a fresh one.
  EXPECT_GE(table.stats().tombstones_reused, 1u);
  EXPECT_EQ(table.Find(key), MakeFlowId(1, 1));
}

// A host's table is sized to its flows: a default table holds one group and
// grows by doubling. Every key inserted so far stays findable right after
// each rebuild.
TEST(FlowTableTest, DefaultTableStartsAtOneGroupAndGrowsByDoubling) {
  FlowTable table;
  EXPECT_EQ(table.capacity(), FlowTable::kGroupSize);
  EXPECT_EQ(table.size(), 0u);
  constexpr uint32_t kFlows = 70'000;
  uint64_t seen_rehashes = 0;
  for (uint32_t i = 0; i < kFlows; ++i) {
    table.Insert(KeyOf(i), MakeFlowId(i & kFlowSlotMask, 0));
    if (table.stats().rehashes != seen_rehashes) {
      seen_rehashes = table.stats().rehashes;
      for (uint32_t j = 0; j <= i; ++j) {
        ASSERT_EQ(table.Find(KeyOf(j)), MakeFlowId(j & kFlowSlotMask, 0))
            << "key " << j << " lost in the rebuild at size " << table.size();
      }
    }
  }
  EXPECT_EQ(table.size(), kFlows);
  EXPECT_EQ(table.capacity(), size_t{128 * 1024});
  // Growth from 16 to 128K slots is 13 doublings.
  EXPECT_EQ(table.stats().rehashes, 13u);
  EXPECT_EQ(table.stats().drift_rebuilds, 0u);
  for (uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_EQ(table.Find(KeyOf(i)), MakeFlowId(i & kFlowSlotMask, 0));
  }
}

TEST(FlowTableTest, ChurnThousandsOfFlowsMatchesReferenceMap) {
  // Mirror every operation into unordered_map and compare continuously:
  // rehashes and tombstone recycling must never lose or corrupt a mapping.
  FlowTable table;
  std::unordered_map<FlowKey, FlowId, FlowKeyHash> reference;
  std::vector<FlowKey> live_keys;
  Rng rng(0xF10F1);
  uint32_t next = 0;
  for (int step = 0; step < 30000; ++step) {
    const bool insert = live_keys.empty() || (rng.Next() % 3) != 0;
    if (insert) {
      const FlowKey key = KeyOf(next);
      const FlowId id = MakeFlowId(next & kFlowSlotMask, next & kFlowGenMask);
      ++next;
      if (reference.count(key) != 0) {
        continue;  // KeyOf collisions across the wrap would double-insert.
      }
      table.Insert(key, id);
      reference[key] = id;
      live_keys.push_back(key);
    } else {
      const size_t victim = rng.Next() % live_keys.size();
      const FlowKey key = live_keys[victim];
      EXPECT_TRUE(table.Erase(key));
      reference.erase(key);
      live_keys[victim] = live_keys.back();
      live_keys.pop_back();
    }
    if (step % 997 == 0) {
      for (const auto& [key, id] : reference) {
        ASSERT_EQ(table.Find(key), id);
      }
    }
  }
  EXPECT_EQ(table.size(), reference.size());
  EXPECT_GT(table.stats().rehashes, 0u);
  for (const auto& [key, id] : reference) {
    ASSERT_EQ(table.Find(key), id);
  }
  // Deleted keys must actually be gone.
  for (uint32_t i = 0; i < next; ++i) {
    const FlowKey key = KeyOf(i);
    const auto it = reference.find(key);
    ASSERT_EQ(table.Find(key), it == reference.end() ? kInvalidFlow : it->second);
  }
}

TEST(FlowTableTest, CapacityIsPowerOfTwoAndBoundsLoadFactor) {
  FlowTable table(8);
  for (uint32_t i = 0; i < 5000; ++i) {
    table.Insert(KeyOf(i), MakeFlowId(i & kFlowSlotMask, 0));
    ASSERT_EQ(table.capacity() & (table.capacity() - 1), 0u);
    ASSERT_LE(table.LoadFactor(), 7.0 / 8.0 + 1e-9);
  }
  for (uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(table.Find(KeyOf(i)), MakeFlowId(i & kFlowSlotMask, 0));
  }
  EXPECT_GT(table.stats().lookups, 0u);
  EXPECT_GT(table.AvgProbeLength(), 0.0);
  EXPECT_GE(table.stats().max_probe, 1u);
}

TEST(FlowTableTest, MillionFlowChurnWithStaleIdRejection) {
  // The ROADMAP capacity target exercised directly: hold over a million live
  // keys through growth rehashes, then churn erase+reinsert; meanwhile a
  // slab churns slots so freed FlowIds must go stale (generation bump).
  FlowTable table;
  const size_t kFlows = 1'050'000;
  std::vector<uint64_t> keys(kFlows);
  for (uint64_t i = 0; i < kFlows; ++i) {
    keys[i] = i;
    table.Insert(KeyOf(static_cast<uint32_t>(i)),
                 MakeFlowId(static_cast<uint32_t>(i) & kFlowSlotMask,
                            static_cast<uint32_t>(i >> kFlowSlotBits)));
  }
  // KeyOf is injective over this range (the i<<7 term dominates), so the
  // table must report exactly one entry per insert.
  ASSERT_EQ(table.size(), kFlows);

  Rng rng(0xC0DE);
  uint64_t next = kFlows;
  for (size_t op = 0; op < 200'000; ++op) {
    const size_t victim = static_cast<size_t>(rng.Next() % kFlows);
    ASSERT_TRUE(table.Erase(KeyOf(static_cast<uint32_t>(keys[victim]))));
    keys[victim] = next++;
    const uint32_t k = static_cast<uint32_t>(keys[victim]);
    table.Insert(KeyOf(k), MakeFlowId(k & kFlowSlotMask, k >> kFlowSlotBits));
    if ((op & 0x3FF) == 0) {
      const size_t probe = static_cast<size_t>(rng.Next() % kFlows);
      const uint32_t pk = static_cast<uint32_t>(keys[probe]);
      ASSERT_EQ(table.Find(KeyOf(pk)), MakeFlowId(pk & kFlowSlotMask, pk >> kFlowSlotBits));
    }
  }
  EXPECT_EQ(table.size(), kFlows);

  // Slab side: every Free must stale the outstanding id before the slot is
  // recycled, across many generations per slot.
  FlowSlab slab;
  std::vector<FlowId> live;
  for (int i = 0; i < 4096; ++i) {
    live.push_back(slab.Allocate());
  }
  for (size_t op = 0; op < 100'000; ++op) {
    const size_t victim = static_cast<size_t>(rng.Next() % live.size());
    const FlowId old_id = live[victim];
    slab.Free(old_id);
    ASSERT_EQ(slab.Get(old_id), nullptr) << "freed id resolved after recycle";
    live[victim] = slab.Allocate();
    ASSERT_NE(slab.Get(live[victim]), nullptr);
  }
  EXPECT_EQ(slab.live(), 4096u);
}

TEST(FlowTableTest, TombstoneDriftTriggersSameCapacityRebuild) {
  // Fill to occupancy 3584 (live + tombstones), then erase most entries:
  // occupancy is unchanged by erases, so with live far below the drift bound
  // (7/16 of capacity) the very next insert's occupancy check must trip as a
  // SAME-capacity rebuild, not growth. This is arithmetic, not placement
  // luck: Insert checks (live + tombstones + 1) * 8 > slots * 7 before it
  // probes, so the trigger fires no matter where the new key hashes.
  FlowTable table(4096);
  uint32_t next = 0;
  std::vector<uint32_t> live;
  for (size_t i = 0; i < 3584; ++i) {  // One under the growth trigger.
    live.push_back(next);
    table.Insert(KeyOf(next), MakeFlowId(next, 0));
    ++next;
  }
  ASSERT_EQ(table.stats().rehashes, 0u);
  size_t head = 0;
  while (live.size() - head > 784) {
    ASSERT_TRUE(table.Erase(KeyOf(live[head++])));
  }
  ASSERT_EQ(table.tombstones(), 2800u);
  const size_t cap_before = table.capacity();

  live.push_back(next);
  table.Insert(KeyOf(next), MakeFlowId(next, 0));
  ++next;
  // The rebuild finished inside the triggering Insert: same capacity, no
  // tombstone left, every live key in place.
  EXPECT_EQ(table.stats().drift_rebuilds, 1u) << "drift rebuild never triggered";
  EXPECT_EQ(table.stats().rehashes, 1u);
  EXPECT_EQ(table.capacity(), cap_before) << "drift rebuild must not grow";
  EXPECT_EQ(table.tombstones(), 0u);
  EXPECT_EQ(table.size(), live.size() - head);
  for (size_t i = head; i < live.size(); ++i) {
    ASSERT_EQ(table.Find(KeyOf(live[i])), MakeFlowId(live[i], 0));
  }
  for (size_t i = 0; i < head; ++i) {
    ASSERT_EQ(table.Find(KeyOf(live[i])), kInvalidFlow);
  }
}

TEST(FlowSlabTest, AllocateResolvesAndFreeStalesId) {
  FlowSlab slab;
  const FlowId a = slab.Allocate();
  const FlowId b = slab.Allocate();
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidFlow);
  Flow* flow = slab.Get(a);
  ASSERT_NE(flow, nullptr);
  flow->mss = 9000;
  EXPECT_EQ(slab.Get(a), flow);  // Stable address.
  EXPECT_EQ(slab.live(), 2u);

  slab.Free(a);
  EXPECT_EQ(slab.Get(a), nullptr);  // Stale generation rejected.
  EXPECT_EQ(slab.live(), 1u);

  // The freed slot is recycled under a new generation; the old id still
  // resolves to nullptr while the new one resolves to a Reset() flow.
  const FlowId c = slab.Allocate();
  EXPECT_EQ(FlowSlotOf(c), FlowSlotOf(a));
  EXPECT_NE(FlowGenOf(c), FlowGenOf(a));
  EXPECT_EQ(slab.Get(a), nullptr);
  Flow* recycled = slab.Get(c);
  ASSERT_NE(recycled, nullptr);
  EXPECT_EQ(recycled->mss, 1448);  // Reset, not leftover state.
}

TEST(FlowSlabTest, OutOfRangeAndInvalidIdsRejected) {
  FlowSlab slab;
  EXPECT_EQ(slab.Get(kInvalidFlow), nullptr);
  EXPECT_EQ(slab.Get(MakeFlowId(123456, 0)), nullptr);
  const FlowId id = slab.Allocate();
  EXPECT_EQ(slab.Get(MakeFlowId(FlowSlotOf(id), FlowGenOf(id) + 1)), nullptr);
}

TEST(FlowSlabTest, ChurnKeepsAddressesStableAcrossGrowth) {
  FlowSlab slab;
  std::vector<FlowId> ids;
  std::vector<Flow*> addrs;
  // Grow across several chunks, then verify early addresses never moved.
  for (uint32_t i = 0; i < FlowSlab::kChunkSlots * 3 + 17; ++i) {
    ids.push_back(slab.Allocate());
    addrs.push_back(slab.Get(ids.back()));
    ASSERT_NE(addrs.back(), nullptr);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(slab.Get(ids[i]), addrs[i]);
  }
  EXPECT_EQ(slab.capacity_slots() % FlowSlab::kChunkSlots, 0u);

  // Free every other flow and re-allocate: recycled ids reuse slots (no
  // growth) and stale ids stay dead.
  const size_t before = slab.capacity_slots();
  std::vector<FlowId> freed;
  for (size_t i = 0; i < ids.size(); i += 2) {
    slab.Free(ids[i]);
    freed.push_back(ids[i]);
  }
  for (size_t i = 0; i < freed.size(); ++i) {
    const FlowId id = slab.Allocate();
    ASSERT_NE(slab.Get(id), nullptr);
  }
  EXPECT_EQ(slab.capacity_slots(), before);
  for (const FlowId id : freed) {
    ASSERT_EQ(slab.Get(id), nullptr);
  }
}

}  // namespace
}  // namespace tas
