// Tests for out-of-order segment tracking: the Linux-class multi-interval
// reassembly buffer (with SACK blocks). The TAS fast path's single-interval
// rule is tested in tas_test.
#include <gtest/gtest.h>

#include "src/tcp/reassembly.h"
#include "src/tcp/seq.h"
#include "src/util/rng.h"

namespace tas {
namespace {

TEST(SeqTest, WrapAroundComparisons) {
  EXPECT_TRUE(SeqLt(0xFFFFFFF0u, 0x00000010u));  // Across the wrap.
  EXPECT_TRUE(SeqGt(0x00000010u, 0xFFFFFFF0u));
  EXPECT_TRUE(SeqLe(5u, 5u));
  EXPECT_FALSE(SeqLt(5u, 5u));
}

TEST(SeqTest, UnwrapNearWrap) {
  const uint32_t isn = 0xFFFFFF00u;
  // Offset 0x200 crosses the 32-bit boundary.
  const uint32_t wire = WrapSeq(isn, 0x200);
  EXPECT_EQ(UnwrapSeq(isn, wire, 0x1F0), 0x200u);
  // A slightly old wire seq unwraps below the reference.
  const uint32_t old_wire = WrapSeq(isn, 0x1C0);
  EXPECT_EQ(UnwrapSeq(isn, old_wire, 0x200), 0x1C0u);
}

TEST(ReassemblyTest, InOrderAdvances) {
  ReassemblyBuffer buf;
  auto r = buf.Insert(0, 0, 100);
  EXPECT_EQ(r.advanced, 100u);
  EXPECT_TRUE(buf.Empty());
}

TEST(ReassemblyTest, OutOfOrderHeldThenMerged) {
  ReassemblyBuffer buf;
  auto r1 = buf.Insert(0, 200, 100);  // Gap at [0,200).
  EXPECT_EQ(r1.advanced, 0u);
  EXPECT_EQ(buf.PendingBytes(), 100u);
  auto r2 = buf.Insert(0, 0, 200);  // Fills the gap.
  EXPECT_EQ(r2.advanced, 300u);
  EXPECT_TRUE(buf.Empty());
}

TEST(ReassemblyTest, OverlapsMerge) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 50);
  buf.Insert(0, 140, 60);  // Overlaps [140,150).
  EXPECT_EQ(buf.NumIntervals(), 1u);
  EXPECT_EQ(buf.PendingBytes(), 100u);  // [100,200).
}

TEST(ReassemblyTest, AbuttingMerge) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 50);
  buf.Insert(0, 150, 50);
  EXPECT_EQ(buf.NumIntervals(), 1u);
  EXPECT_EQ(buf.PendingBytes(), 100u);
}

TEST(ReassemblyTest, DisjointIntervalsTracked) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 10);
  buf.Insert(0, 300, 10);
  buf.Insert(0, 500, 10);
  EXPECT_EQ(buf.NumIntervals(), 3u);
  EXPECT_EQ(buf.PendingBytes(), 30u);
}

TEST(ReassemblyTest, DuplicateDetected) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 50);
  auto r = buf.Insert(0, 110, 20);  // Fully inside.
  EXPECT_TRUE(r.duplicate);
  EXPECT_EQ(buf.PendingBytes(), 50u);
}

TEST(ReassemblyTest, BelowNextClipped) {
  ReassemblyBuffer buf;
  // [0, 50) already delivered (next=50); retransmission overlaps.
  auto r = buf.Insert(50, 0, 100);
  EXPECT_EQ(r.advanced, 50u);  // Only [50,100) is new.
}

TEST(ReassemblyTest, SackBlocksMostRecentFirst) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 10);
  buf.Insert(0, 300, 10);
  buf.Insert(0, 500, 10);
  auto blocks = buf.SackBlocks(3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].first, 500u);  // Most recently updated first (RFC 2018).
  EXPECT_EQ(blocks[1].first, 300u);
  EXPECT_EQ(blocks[2].first, 100u);
  // Updating an old interval moves it to the front.
  buf.Insert(0, 110, 10);
  blocks = buf.SackBlocks(3);
  EXPECT_EQ(blocks[0].first, 100u);
  EXPECT_EQ(blocks[0].second, 120u);
}

TEST(ReassemblyTest, SackBlockLimitRespected) {
  ReassemblyBuffer buf;
  for (int i = 0; i < 6; ++i) {
    buf.Insert(0, 100 + i * 100, 10);
  }
  EXPECT_EQ(buf.SackBlocks(3).size(), 3u);
  EXPECT_EQ(buf.NumIntervals(), 6u);
}

TEST(ReassemblyTest, ChainMergeOnFill) {
  ReassemblyBuffer buf;
  buf.Insert(0, 100, 100);  // [100,200)
  buf.Insert(0, 200, 100);  // Merges into [100,300).
  EXPECT_EQ(buf.NumIntervals(), 1u);
  auto r = buf.Insert(0, 0, 100);  // Fills [0,100) -> everything contiguous.
  EXPECT_EQ(r.advanced, 300u);
  EXPECT_TRUE(buf.Empty());
}

// Property: random segment arrivals always reconstruct the exact stream
// prefix; pending bytes never exceed what was inserted beyond `next`.
TEST(ReassemblyTest, RandomizedReconstructionProperty) {
  Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    ReassemblyBuffer buf;
    const uint64_t total = 5000;
    uint64_t next = 0;
    std::vector<bool> covered(total, false);
    // Generate random segments until the stream completes.
    int guard = 0;
    while (next < total && ++guard < 100000) {
      const uint64_t start = rng.NextUint64(total);
      const uint64_t len = 1 + rng.NextUint64(200);
      const uint64_t end = std::min(start + len, total);
      if (end <= next) {
        continue;
      }
      const auto r = buf.Insert(next, start, end - start);
      next += r.advanced;
      // Intervals must always lie strictly above next and be disjoint.
      uint64_t prev_end = next;
      for (const auto& [s, e] : buf.Intervals()) {
        EXPECT_GE(s, prev_end);
        EXPECT_GT(e, s);
        prev_end = e;
      }
    }
    EXPECT_EQ(next, total);
    EXPECT_TRUE(buf.Empty());
  }
}

}  // namespace
}  // namespace tas
