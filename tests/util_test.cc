// Unit tests for src/util: RNG and distributions, statistics, the circular
// byte buffer, the FIFO queue, the port table, and the log histogram.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <vector>

#include "src/util/fifo.h"
#include "src/util/logging.h"
#include "src/util/port_table.h"
#include "src/util/ring_buffer.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/zipf.h"

namespace tas {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExp(42.0);
  }
  EXPECT_NEAR(sum / n, 42.0, 1.0);
}

TEST(RngTest, BoolProbability) {
  Rng rng(17);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    heads += rng.NextBool(0.9) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.9, 0.01);
}

TEST(ParetoTest, BoundsRespected) {
  Rng rng(19);
  BoundedPareto pareto(100, 10000, 1.2);
  for (int i = 0; i < 10000; ++i) {
    const double v = pareto.Sample(rng);
    EXPECT_GE(v, 100.0);
    EXPECT_LE(v, 10000.0);
  }
}

TEST(ParetoTest, EmpiricalMeanMatchesAnalytic) {
  Rng rng(23);
  BoundedPareto pareto(1448, 2e6, 1.05);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += pareto.Sample(rng);
  }
  const double empirical = sum / n;
  EXPECT_NEAR(empirical / pareto.Mean(), 1.0, 0.05);
}

TEST(ZipfTest, SkewOrdersPopularity) {
  Rng rng(29);
  ZipfGenerator zipf(1000, 0.9);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  // Rank 0 must dominate rank 100 which must dominate rank 900.
  EXPECT_GT(counts[0], counts[100]);
  EXPECT_GT(counts[100], counts[900]);
  // Zipf s=0.9: ratio of rank0 to rank9 ~ 10^0.9 ~ 7.9.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 7.9, 2.5);
}

// Chi-square goodness of fit for the rejection-inversion sampler against the
// exact zipf pmf. With df = 99 the chi-square 99.9th percentile is ~148.2; a
// correct sampler fails this with probability 1e-3 per seed, and the seed is
// fixed, so the test is deterministic in practice.
TEST(ZipfTest, ChiSquareGoodnessOfFit) {
  constexpr size_t kRanks = 100;
  constexpr int kDraws = 200000;
  for (const double s : {0.6, 0.9, 1.0, 1.3}) {
    Rng rng(4242);
    ZipfGenerator zipf(kRanks, s);
    std::vector<int> counts(kRanks, 0);
    for (int i = 0; i < kDraws; ++i) {
      const size_t k = zipf.Sample(rng);
      ASSERT_LT(k, kRanks);
      counts[k]++;
    }
    double chi2 = 0;
    for (size_t k = 0; k < kRanks; ++k) {
      const double expected = zipf.Pmf(k) * kDraws;
      ASSERT_GT(expected, 5.0);  // Chi-square validity: all cells populated.
      const double diff = counts[k] - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 148.2) << "zipf s=" << s << " rejects goodness-of-fit";
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfGenerator zipf(500, 1.1);
  double sum = 0;
  for (size_t k = 0; k < zipf.size(); ++k) {
    sum += zipf.Pmf(k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, SingleRankAlwaysZero) {
  Rng rng(7);
  ZipfGenerator zipf(1, 0.9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(RunningStatsTest, Moments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.stddev(), 2.138, 0.001);  // Sample stddev.
}

TEST(RunningStatsTest, MergeEqualsCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 100;
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStatsTest, MergeEmptyCases) {
  RunningStats filled;
  for (int i = 1; i <= 10; ++i) {
    filled.Add(i);
  }
  RunningStats empty;
  // Merging an empty accumulator is a no-op.
  RunningStats a = filled;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 10u);
  EXPECT_DOUBLE_EQ(a.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(a.variance(), filled.variance());
  // Merging into an empty accumulator copies the other side exactly.
  RunningStats b;
  b.Merge(filled);
  EXPECT_EQ(b.count(), 10u);
  EXPECT_DOUBLE_EQ(b.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
  EXPECT_DOUBLE_EQ(b.max(), 10.0);
  EXPECT_DOUBLE_EQ(b.sum(), filled.sum());
}

TEST(RunningStatsTest, MergeUnevenSplitMatchesSinglePass) {
  // Split the stream 1:9 (not interleaved) so the pairwise-merge math is
  // exercised with very different counts and means on each side.
  RunningStats head;
  RunningStats tail;
  RunningStats all;
  Rng rng(91);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.NextExp(3.0) + (i < 500 ? 100.0 : 0.0);
    (i < 500 ? head : tail).Add(v);
    all.Add(v);
  }
  head.Merge(tail);
  EXPECT_EQ(head.count(), all.count());
  EXPECT_NEAR(head.mean(), all.mean(), 1e-9 * all.mean());
  EXPECT_NEAR(head.variance(), all.variance(), 1e-6 * all.variance());
  EXPECT_DOUBLE_EQ(head.min(), all.min());
  EXPECT_DOUBLE_EQ(head.max(), all.max());
  EXPECT_NEAR(head.sum(), all.sum(), 1e-6);
}

TEST(LatencyRecorderTest, ExactPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Add(i);
  }
  EXPECT_NEAR(rec.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(rec.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(rec.Median(), 50.5, 1e-9);
  EXPECT_NEAR(rec.Percentile(99), 99.01, 0.1);
  EXPECT_NEAR(rec.Mean(), 50.5, 1e-9);
}

TEST(LatencyRecorderTest, ReservoirBounded) {
  LatencyRecorder rec(1000);
  for (int i = 0; i < 100000; ++i) {
    rec.Add(i % 100);
  }
  EXPECT_EQ(rec.count(), 100000u);
  // Percentiles still roughly correct from the reservoir.
  EXPECT_NEAR(rec.Median(), 50, 10);
}

TEST(LatencyRecorderTest, ReservoirDeterministicAcrossRuns) {
  // The reservoir uses a fixed internal seed, so two recorders fed the same
  // sample stream must retain identical reservoirs — even far past capacity.
  LatencyRecorder a(512);
  LatencyRecorder b(512);
  Rng ra(77);
  Rng rb(77);
  for (int i = 0; i < 50000; ++i) {
    a.Add(ra.NextExp(5.0));
    b.Add(rb.NextExp(5.0));
  }
  EXPECT_EQ(a.count(), b.count());
  for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), b.Percentile(p)) << "p=" << p;
  }
}

TEST(LatencyRecorderTest, CdfMonotone) {
  LatencyRecorder rec;
  Rng rng(37);
  for (int i = 0; i < 5000; ++i) {
    rec.Add(rng.NextExp(10));
  }
  auto cdf = rec.Cdf(100);
  ASSERT_FALSE(cdf.empty());
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(ByteRingTest, BasicWriteRead) {
  ByteRing ring(16);
  const uint8_t data[] = "hello";
  EXPECT_EQ(ring.Write(data, 5), 5u);
  EXPECT_EQ(ring.used(), 5u);
  uint8_t out[8] = {};
  EXPECT_EQ(ring.Read(out, 8), 5u);
  EXPECT_EQ(std::memcmp(out, "hello", 5), 0);
  EXPECT_TRUE(ring.empty());
}

TEST(ByteRingTest, WrapAround) {
  ByteRing ring(8);
  uint8_t buf[6] = {1, 2, 3, 4, 5, 6};
  ASSERT_EQ(ring.Write(buf, 6), 6u);
  uint8_t out[6];
  ASSERT_EQ(ring.Read(out, 4), 4u);
  // Now head=6, tail=4; write 5 more wraps around the 8-byte array.
  uint8_t buf2[5] = {7, 8, 9, 10, 11};
  ASSERT_EQ(ring.Write(buf2, 5), 5u);
  EXPECT_EQ(ring.used(), 7u);
  uint8_t out2[7];
  ASSERT_EQ(ring.Read(out2, 7), 7u);
  const uint8_t expect[7] = {5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(std::memcmp(out2, expect, 7), 0);
}

TEST(ByteRingTest, WriteRespectsCapacity) {
  ByteRing ring(4);
  uint8_t buf[10] = {};
  EXPECT_EQ(ring.Write(buf, 10), 4u);
  EXPECT_EQ(ring.free_space(), 0u);
  EXPECT_EQ(ring.Write(buf, 1), 0u);
}

TEST(ByteRingTest, WriteAtAndAdvanceHead) {
  ByteRing ring(16);
  const uint8_t a[] = {1, 2, 3, 4};
  // Place out-of-order data at offset 8 without moving head.
  ASSERT_TRUE(ring.WriteAt(8, a, 4));
  EXPECT_EQ(ring.used(), 0u);
  const uint8_t b[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  ASSERT_TRUE(ring.WriteAt(0, b, 8));
  ring.AdvanceHead(12);
  EXPECT_EQ(ring.used(), 12u);
  uint8_t out[12];
  ASSERT_EQ(ring.Read(out, 12), 12u);
  EXPECT_EQ(out[8], 1);
  EXPECT_EQ(out[11], 4);
}

TEST(ByteRingTest, WriteAtRejectsOutOfWindow) {
  ByteRing ring(16);
  uint8_t a[4] = {};
  EXPECT_FALSE(ring.WriteAt(14, a, 4));  // Ends beyond tail+capacity.
  EXPECT_TRUE(ring.WriteAt(12, a, 4));
}

TEST(ByteRingTest, PeekAndDiscard) {
  ByteRing ring(16);
  const uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8};
  ring.Write(data, 8);
  uint8_t out[4];
  EXPECT_EQ(ring.Peek(2, out, 4), 4u);
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(ring.used(), 8u);  // Peek does not consume.
  ring.Discard(5);
  EXPECT_EQ(ring.used(), 3u);
  EXPECT_EQ(ring.Peek(5, out, 1), 1u);
  EXPECT_EQ(out[0], 6);
}

TEST(ByteRingTest, LongStreamProperty) {
  // Write/read random chunks; the read stream must equal the write stream.
  ByteRing ring(64);
  Rng rng(41);
  std::vector<uint8_t> written;
  std::vector<uint8_t> read;
  uint8_t next = 0;
  while (written.size() < 10000) {
    const size_t w = rng.NextUint64(32) + 1;
    std::vector<uint8_t> chunk(w);
    for (auto& c : chunk) {
      c = next++;
    }
    const size_t accepted = ring.Write(chunk.data(), w);
    written.insert(written.end(), chunk.begin(), chunk.begin() + static_cast<long>(accepted));
    next = static_cast<uint8_t>(chunk[0] + accepted);  // Rewind sequence.
    uint8_t out[32];
    const size_t r = ring.Read(out, rng.NextUint64(32) + 1);
    read.insert(read.end(), out, out + r);
  }
  while (!ring.empty()) {
    uint8_t out[32];
    const size_t r = ring.Read(out, 32);
    read.insert(read.end(), out, out + r);
  }
  ASSERT_EQ(written.size(), read.size());
  EXPECT_EQ(written, read);
}

// Stream bytes whose value is a function of their position.
std::vector<uint8_t> StreamBytes(uint64_t from, size_t len) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>((from + i) * 7 + 3);
  }
  return out;
}

TEST(ByteRingTest, StorageStartsEmptyAndWriteGrowsIt) {
  ByteRing ring(128 * 1024);
  EXPECT_EQ(ring.storage_bytes(), 0u);
  const std::vector<uint8_t> a = StreamBytes(0, 100);
  ASSERT_EQ(ring.Write(a.data(), a.size()), a.size());
  EXPECT_EQ(ring.storage_bytes(), RingStorage<uint64_t>::kMinBytes);
  const std::vector<uint8_t> b = StreamBytes(100, 5000);
  ASSERT_EQ(ring.Write(b.data(), b.size()), b.size());
  EXPECT_EQ(ring.storage_bytes(), 8192u);  // Smallest power of two over 5,100 live bytes.
  std::vector<uint8_t> out(5100);
  ASSERT_EQ(ring.Read(out.data(), out.size()), out.size());
  EXPECT_EQ(out, StreamBytes(0, 5100));
}

TEST(ByteRingTest, OutOfOrderWriteBeyondStorageGrowsIt) {
  ByteRing ring(64 * 1024);
  const std::vector<uint8_t> first = StreamBytes(0, 10);
  ASSERT_EQ(ring.Write(first.data(), first.size()), first.size());
  ASSERT_EQ(ring.storage_bytes(), RingStorage<uint64_t>::kMinBytes);
  // A segment placed past a hole, far beyond the 2 KiB array.
  const std::vector<uint8_t> ooo = StreamBytes(10000, 100);
  ASSERT_TRUE(ring.WriteAt(10000, ooo.data(), ooo.size()));
  EXPECT_EQ(ring.storage_bytes(), 16384u);
  EXPECT_EQ(ring.used(), 10u);
  // The retransmission fills the hole; the whole stream reads back intact.
  const std::vector<uint8_t> hole = StreamBytes(10, 9990);
  ASSERT_TRUE(ring.WriteAt(10, hole.data(), hole.size()));
  ring.AdvanceHead(10100);
  std::vector<uint8_t> out(10100);
  ASSERT_EQ(ring.Read(out.data(), out.size()), out.size());
  EXPECT_EQ(out, StreamBytes(0, 10100));
}

TEST(ByteRingTest, StorageGrowthAcrossWrapPreservesBytes) {
  ByteRing ring(64 * 1024);
  const std::vector<uint8_t> a = StreamBytes(0, 1500);
  ASSERT_EQ(ring.Write(a.data(), a.size()), a.size());
  std::vector<uint8_t> sink(a.size());
  ASSERT_EQ(ring.Read(sink.data(), sink.size()), sink.size());
  // Live bytes [1500, 2500) straddle the end of the 2 KiB array...
  const std::vector<uint8_t> b = StreamBytes(1500, 1000);
  ASSERT_EQ(ring.Write(b.data(), b.size()), b.size());
  ASSERT_EQ(ring.storage_bytes(), 2048u);
  // ...so growing to 4 KiB must re-place both halves under the new mask.
  const std::vector<uint8_t> c = StreamBytes(2500, 3000);
  ASSERT_EQ(ring.Write(c.data(), c.size()), c.size());
  EXPECT_EQ(ring.storage_bytes(), 4096u);
  std::vector<uint8_t> out(4000);
  ASSERT_EQ(ring.Read(out.data(), out.size()), out.size());
  EXPECT_EQ(out, StreamBytes(1500, 4000));
}

TEST(ByteRingTest, LogicalCapacityStaysConfiguredAndStorageCapped) {
  // 100,000 is not a power of two: storage stops at 131,072 while
  // capacity() and free_space() keep reporting the configured size.
  constexpr size_t kCapacity = 100000;
  ByteRing ring(kCapacity);
  Rng rng(43);
  uint64_t written = 0;
  uint64_t read = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::vector<uint8_t> chunk = StreamBytes(written, rng.NextUint64(8192) + 1);
    written += ring.Write(chunk.data(), chunk.size());
    std::vector<uint8_t> out(rng.NextUint64(4096) + 1);
    out.resize(ring.Read(out.data(), out.size()));
    ASSERT_EQ(out, StreamBytes(read, out.size()));
    read += out.size();
    ASSERT_EQ(ring.capacity(), kCapacity);
    ASSERT_EQ(ring.free_space(), kCapacity - ring.used());
    ASSERT_LE(ring.storage_bytes(), 131072u);
  }
  EXPECT_EQ(ring.storage_bytes(), 131072u);  // The ring filled up on the way.
}

// A released ring (a flow whose stream ended, a freed slot) holds nothing;
// a later write regrows it from the floor with the live span intact.
TEST(RingStorageTest, WriteAfterReleaseRegrowsFromMinimum) {
  constexpr size_t kLimit = 64 * 1024;
  RingStorage<uint32_t> mem;
  const std::vector<uint8_t> a = StreamBytes(0, 5000);
  mem.Write(0, 0, a.data(), a.size(), kLimit);
  ASSERT_EQ(mem.bytes(), 8192u);

  mem.Release();
  EXPECT_EQ(mem.bytes(), 0u);
  EXPECT_EQ(mem.data(), nullptr);
  mem.Read(5000, nullptr, 0);  // A zero-length read touches nothing.

  // The stream resumes past everything the released array held.
  const std::vector<uint8_t> b = StreamBytes(5000, 100);
  mem.Write(5000, 5000, b.data(), b.size(), kLimit);
  EXPECT_EQ(mem.bytes(), RingStorage<uint32_t>::kMinBytes);
  std::vector<uint8_t> out(b.size());
  mem.Read(5000, out.data(), out.size());
  EXPECT_EQ(out, b);

  // Growth from the regrown array re-places the live span as before.
  const std::vector<uint8_t> c = StreamBytes(5100, 3000);
  mem.Write(5000, 5100, c.data(), c.size(), kLimit);
  EXPECT_EQ(mem.bytes(), 4096u);
  out.resize(3100);
  mem.Read(5000, out.data(), out.size());
  EXPECT_EQ(out, StreamBytes(5000, 3100));
}

TEST(FifoTest, HoldsNoStorageUntilFirstPush) {
  Fifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), 0u);
  fifo.push_back(7);
  EXPECT_EQ(fifo.capacity(), Fifo<int>::kMinCapacity);
  EXPECT_EQ(fifo.front(), 7);
}

// Randomized push/pop against std::deque. Bursty pushes grow the ring several
// times while pops keep the head moving, so most growths find the live span
// wrapped around the end of the array.
TEST(FifoTest, MatchesDequeAcrossWrappedGrowths) {
  Fifo<uint64_t> fifo;
  std::deque<uint64_t> reference;
  Rng rng(0xF1F0);
  uint64_t next = 0;
  size_t growths = 0;
  size_t wrapped_growths = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = reference.empty() || rng.NextUint64(100) < (step < 10000 ? 55 : 45);
    if (push) {
      const size_t cap = fifo.capacity();
      const bool wrapped = cap > 0 && fifo.size() == cap && &fifo[cap - 1] < &fifo[0];
      fifo.push_back(next);
      reference.push_back(next);
      ++next;
      if (fifo.capacity() != cap) {
        ++growths;
        wrapped_growths += wrapped ? 1 : 0;
      }
    } else {
      ASSERT_EQ(fifo.front(), reference.front());
      fifo.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(fifo.size(), reference.size());
    if (!reference.empty()) {
      const size_t i = rng.NextUint64(reference.size());
      ASSERT_EQ(fifo[i], reference[i]);
      ASSERT_EQ(fifo[reference.size() - 1], reference.back());
    }
  }
  EXPECT_GE(growths, 4u);
  EXPECT_GE(wrapped_growths, 2u);
  while (!reference.empty()) {
    ASSERT_EQ(fifo.front(), reference.front());
    fifo.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FifoTest, MoveOnlyElementsSurviveGrowthAndClear) {
  Fifo<std::unique_ptr<int>> fifo;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {  // Head advances so growth sees a wrap.
      fifo.push_back(std::make_unique<int>(-1));
      fifo.pop_front();
    }
    for (int i = 0; i < 40; ++i) {
      fifo.push_back(std::make_unique<int>(i));
    }
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(*fifo[static_cast<size_t>(i)], i);
    }
    std::unique_ptr<int> first = std::move(fifo.front());
    fifo.pop_front();
    EXPECT_EQ(*first, 0);
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
  }
  EXPECT_EQ(fifo.capacity(), 64u);  // Never shrinks.
}

TEST(FifoTest, BoundedFifoKeepsItsLogicalCapacity) {
  Fifo<int> fifo(8191);
  for (int i = 0; i < 8191; ++i) {
    ASSERT_FALSE(fifo.full());
    fifo.push_back(i);
  }
  EXPECT_TRUE(fifo.full());
  EXPECT_EQ(fifo.capacity(), 8192u);
  fifo.pop_front();
  EXPECT_FALSE(fifo.full());
  EXPECT_EQ(fifo.front(), 1);
}

TEST(PortTableTest, EphemeralWrapAndBusySkip) {
  PortTable ports;
  EXPECT_EQ(ports.chunks_in_use(), 0u);
  EXPECT_EQ(ports.AllocateEphemeral(), PortTable::kEphemeralFirst);
  ports.Acquire(PortTable::kEphemeralFirst);
  ports.Acquire(PortTable::kEphemeralFirst + 2);
  EXPECT_EQ(ports.AllocateEphemeral(), PortTable::kEphemeralFirst + 1);
  EXPECT_EQ(ports.AllocateEphemeral(), PortTable::kEphemeralFirst + 3);  // Skips the busy one.
  uint16_t port = 0;
  while (port != PortTable::kEphemeralLast) {
    port = ports.AllocateEphemeral();
  }
  // Wraps to the bottom of the range and skips the ports still bound.
  EXPECT_EQ(ports.AllocateEphemeral(), PortTable::kEphemeralFirst + 1);
  ports.Release(PortTable::kEphemeralFirst + 2);
  EXPECT_EQ(ports.AllocateEphemeral(), PortTable::kEphemeralFirst + 2);
  EXPECT_EQ(ports.count(PortTable::kEphemeralFirst), 1u);
  EXPECT_EQ(ports.count(80), 0u);
  EXPECT_EQ(ports.chunks_in_use(), 1u);  // Only the chunk that was written.
}

TEST(LogHistogramTest, PercentileBuckets) {
  LogHistogram hist;
  for (uint64_t i = 0; i < 1000; ++i) {
    hist.Add(100);
  }
  hist.Add(100000);
  EXPECT_EQ(hist.count(), 1001u);
  EXPECT_LT(hist.ApproxPercentile(50), 256u);
  EXPECT_GT(hist.ApproxPercentile(99.99), 60000u);
}

TEST(LogHistogramTest, ApproxPercentileEmpty) {
  LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.ApproxPercentile(0), 0u);
  EXPECT_EQ(hist.ApproxPercentile(50), 0u);
  EXPECT_EQ(hist.ApproxPercentile(100), 0u);
}

TEST(LogHistogramTest, ApproxPercentileSingleBucket) {
  // All samples land in one power-of-two bucket; every percentile > 0
  // reports that bucket's upper bound.
  LogHistogram hist;
  for (int i = 0; i < 100; ++i) {
    hist.Add(100);  // Bucket [64, 127].
  }
  EXPECT_EQ(hist.ApproxPercentile(1), 127u);
  EXPECT_EQ(hist.ApproxPercentile(50), 127u);
  EXPECT_EQ(hist.ApproxPercentile(100), 127u);
}

TEST(LogHistogramTest, ApproxPercentileBoundaries) {
  LogHistogram hist;
  hist.Add(0);     // Bucket 0 (upper bound 0).
  hist.Add(1000);  // Bucket [512, 1023].
  // p=0 clamps to a target rank of one sample: the first non-empty bucket.
  EXPECT_EQ(hist.ApproxPercentile(0), 0u);
  // p=100 must walk to the bucket holding the largest sample.
  EXPECT_EQ(hist.ApproxPercentile(100), 1023u);
  // Zero values live in bucket 0 and report an upper bound of 0.
  EXPECT_EQ(hist.ApproxPercentile(50), 0u);
}

TEST(LogHistogramTest, MergeMatchesSinglePass) {
  // Merging split histograms must equal adding every sample to one: same
  // count, same percentile answers at every bucketed rank.
  LogHistogram combined, head, tail;
  for (uint64_t i = 1; i <= 2000; ++i) {
    combined.Add(i * 7);
    (i <= 600 ? head : tail).Add(i * 7);
  }
  head.Merge(tail);
  EXPECT_EQ(head.count(), combined.count());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(head.ApproxPercentile(p), combined.ApproxPercentile(p)) << "p=" << p;
  }
  // Merging an empty histogram is a no-op in both directions.
  LogHistogram empty;
  head.Merge(empty);
  EXPECT_EQ(head.count(), combined.count());
  empty.Merge(combined);
  EXPECT_EQ(empty.count(), combined.count());
  EXPECT_EQ(empty.ApproxPercentile(50), combined.ApproxPercentile(50));
}

TEST(RateCounterTest, Rates) {
  RateCounter counter;
  counter.Start(0);
  counter.Add(500);
  counter.AddBytes(1000);
  EXPECT_DOUBLE_EQ(counter.Rate(Sec(1)), 500.0);
  EXPECT_DOUBLE_EQ(counter.BitRate(Sec(1)), 8000.0);
}

}  // namespace
}  // namespace tas
