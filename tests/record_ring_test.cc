// RecordRing<T> (src/trace/record_ring.h) against a std::deque reference
// model: seeded random Append/Find/Retire/Clear sequences that wrap the ring
// many times.
#include "src/trace/record_ring.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

namespace tas {
namespace {

constexpr int kTypes = 4;

struct Rec {
  uint64_t value = 0;
  int type = 0;
};

// The reference: the last capacity() appends in order, each with its id and
// whether it is still live.
struct Model {
  struct Entry {
    uint64_t id;
    Rec rec;
    bool live;
  };
  size_t capacity;
  std::deque<Entry> window;
  uint64_t next_id = 1;
  uint64_t evicted = 0;
  std::array<uint64_t, kTypes> evicted_by_type{};

  uint64_t Append(const Rec& rec) {
    const uint64_t id = next_id++;
    window.push_back(Entry{id, rec, true});
    if (window.size() > capacity) {
      if (window.front().live) {
        ++evicted;
        ++evicted_by_type[static_cast<size_t>(window.front().rec.type)];
      }
      window.pop_front();
    }
    return id;
  }
  Entry* Find(uint64_t id) {
    for (Entry& e : window) {
      if (e.id == id && e.live) {
        return &e;
      }
    }
    return nullptr;
  }
  size_t live() const {
    size_t n = 0;
    for (const Entry& e : window) {
      n += e.live ? 1 : 0;
    }
    return n;
  }
  void Clear() {
    window.clear();
    next_id = 1;
    evicted = 0;
    evicted_by_type.fill(0);
  }
};

void CheckSame(const RecordRing<Rec>& ring, const Model& model) {
  ASSERT_EQ(ring.size(), model.live());
  ASSERT_EQ(ring.last_id(), model.next_id - 1);
  ASSERT_EQ(ring.evicted(), model.evicted);
  std::vector<Rec> expect;
  for (const Model::Entry& e : model.window) {
    if (e.live) {
      expect.push_back(e.rec);
    }
  }
  const std::vector<Rec> got = ring.Snapshot();
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].value, expect[i].value) << "at " << i;
    ASSERT_EQ(got[i].type, expect[i].type) << "at " << i;
  }
}

TEST(RecordRingTest, MatchesDequeModelAcrossWraps) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // Non-power-of-two requests round up.
    const size_t requested = 3 + static_cast<size_t>(rng() % 14);
    RecordRing<Rec> ring(requested);
    ASSERT_GE(ring.capacity(), requested);
    ASSERT_EQ(ring.capacity() & (ring.capacity() - 1), 0u);
    ASSERT_EQ(ring.slots(), 0u);  // No storage before the first append.

    Model model{ring.capacity(), {}, 1, 0, {}};
    std::array<uint64_t, kTypes> evicted_by_type{};
    uint64_t value = 0;
    int clears = 0;
    // Enough appends to wrap the ring dozens of times.
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng() % 100;
      if (op < 55) {
        const Rec rec{++value, static_cast<int>(rng() % kTypes)};
        ring.Append([&](const Rec& lost) {
          ++evicted_by_type[static_cast<size_t>(lost.type)];
        }) = rec;
        const uint64_t id = model.Append(rec);
        ASSERT_EQ(ring.last_id(), id);
        ASSERT_EQ(ring.slots(), ring.capacity());
      } else if (op < 80) {
        // Any id: live, retired, overwritten, never issued, or 0.
        const uint64_t id = rng() % (model.next_id + 3);
        const Rec* got = ring.Find(id);
        const Model::Entry* want = model.Find(id);
        ASSERT_EQ(got != nullptr, want != nullptr) << "id " << id;
        if (got != nullptr) {
          ASSERT_EQ(got->value, want->rec.value);
        }
      } else if (op < 98) {
        const uint64_t id = rng() % (model.next_id + 3);
        Model::Entry* want = model.Find(id);
        ASSERT_EQ(ring.Retire(id), want != nullptr) << "id " << id;
        if (want != nullptr) {
          want->live = false;
        }
        ASSERT_EQ(ring.Find(id), nullptr);  // A retired id is stale.
        ASSERT_FALSE(ring.Retire(id));      // Retiring twice does nothing.
      } else {
        const size_t slots = ring.slots();
        ring.Clear();
        model.Clear();
        evicted_by_type.fill(0);
        ++clears;
        ASSERT_EQ(ring.slots(), slots);  // Clear keeps the storage.
      }
      CheckSame(ring, model);
      ASSERT_EQ(evicted_by_type, model.evicted_by_type);
    }
    EXPECT_GT(clears, 0);
  }
}

TEST(RecordRingTest, OverwritesOldestAndCountsOnlyLiveEvictions) {
  RecordRing<Rec> ring(4);
  std::vector<uint64_t> ids;
  for (uint64_t v = 1; v <= 4; ++v) {
    ring.Append() = Rec{v, 0};
    ids.push_back(ring.last_id());
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(ring.Retire(ids[0]));
  ring.Append() = Rec{5, 0};  // Takes the retired record's slot: not counted.
  EXPECT_EQ(ring.evicted(), 0u);
  ring.Append() = Rec{6, 0};  // Evicts live record 2.
  EXPECT_EQ(ring.evicted(), 1u);
  EXPECT_EQ(ring.Find(ids[1]), nullptr);
  ASSERT_NE(ring.Find(ids[2]), nullptr);
  EXPECT_EQ(ring.Find(ids[2])->value, 3u);
  std::vector<uint64_t> order;
  ring.ForEach([&](const Rec& r) { order.push_back(r.value); });
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 4, 5, 6}));
}

}  // namespace
}  // namespace tas
