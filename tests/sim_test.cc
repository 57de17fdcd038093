// Unit tests for the discrete-event simulator core.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace tas {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, TiesBreakByInsertionOrderAcrossRunUntil) {
  // C is scheduled from inside an event during the first RunUntil; H is
  // scheduled later, between runs, for the same instant. Insertion order
  // decides the tie, whoever did the scheduling.
  Simulator sim;
  std::vector<char> order;
  sim.At(200, [&] {
    sim.At(1000, [&] { sim.At(1010, [&] { order.push_back('C'); }); });
  });
  sim.RunUntil(1000);
  sim.At(1010, [&] { order.push_back('H'); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<char>{'C', 'H'}));
}

TEST(SimulatorTest, RunUntilShortOfNextEventKeepsLaterSchedulesOrdered) {
  // RunUntil must look at the next event without committing the queue to
  // its time: events scheduled afterwards in [until, next) still fire first.
  Simulator sim;
  std::vector<TimeNs> fired;
  auto record = [&] { fired.push_back(sim.Now()); };
  sim.At(TimeNs{1} << 20, record);
  sim.RunUntil(TimeNs{1} << 10);
  sim.At((TimeNs{1} << 10) + 1, record);
  sim.At(TimeNs{1} << 19, record);
  sim.At(TimeNs{1} << 10, record);  // Exactly at the boundary, i.e. Now().
  sim.Run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{TimeNs{1} << 10, (TimeNs{1} << 10) + 1,
                                        TimeNs{1} << 19, TimeNs{1} << 20}));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] {
    ++fired;
    sim.After(5, [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 15);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.At(10, [&] { ++fired; });
  sim.At(5, [&] { handle.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(20, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SchedulingInPastIsFatal) {
  Simulator sim;
  sim.At(100, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(50, [] {}), "Check failed");
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, 10, [&] { ++fired; });
  task.Start();
  sim.RunUntil(95);
  EXPECT_EQ(fired, 9);
  task.Stop();
  sim.RunUntil(200);
  EXPECT_EQ(fired, 9);
}

TEST(PeriodicTaskTest, StopInsideCallback) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(&sim, 10, [&] {
    if (++fired == 3) {
      // Stopping from within the callback must not reschedule.
      sim.Stop();
    }
  });
  task.Start();
  sim.RunUntil(1000);
  task.Stop();
  sim.RunUntil(2000);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, EventCountTracked) {
  Simulator sim;
  for (int i = 0; i < 42; ++i) {
    sim.At(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 42u);
}


// --- Pooled event nodes and handle lifecycle (DESIGN.md §8) ----------------

TEST(EventHandleTest, InvalidAfterFire) {
  Simulator sim;
  EventHandle h = sim.At(10, [] {});
  EXPECT_TRUE(h.valid());
  sim.Run();
  EXPECT_FALSE(h.valid());
  h.Cancel();  // Must be a harmless no-op after the fact.
  EXPECT_EQ(sim.cancelled_events(), 0u);
}

TEST(EventHandleTest, InvalidAfterCancel) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.At(10, [&] { ++fired; });
  h.Cancel();
  EXPECT_FALSE(h.valid());
  h.Cancel();  // Double-cancel counts once.
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.cancelled_events(), 1u);
  EXPECT_EQ(sim.cancelled_popped(), 1u);  // Lazy deletion skipped the entry.
}

TEST(EventHandleTest, StaleHandleDoesNotAliasRecycledNode) {
  // ABA safety: cancel an event, let its slab node be recycled by a new
  // event, then use the stale handle. The new tenant must be untouched.
  Simulator sim;
  int first = 0;
  int second = 0;
  EventHandle old = sim.At(10, [&] { ++first; });
  old.Cancel();
  // The freed node is head of the free list, so this reuses it.
  sim.At(20, [&] { ++second; });
  EXPECT_FALSE(old.valid());
  old.Cancel();  // Stale generation: must not kill the new tenant.
  sim.Run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(sim.cancelled_events(), 1u);
}

TEST(EventHandleTest, DefaultConstructedIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.valid());
  h.Cancel();
}

TEST(SimulatorTest, NodesAreRecycledNotLeaked) {
  Simulator sim;
  TimeNs when = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.At(when, [] {});
    when += 10;
    sim.RunUntil(when);
  }
  // One event in flight at a time: the slab should stay tiny.
  EXPECT_LE(sim.event_nodes_total(), 4u);
  EXPECT_EQ(sim.event_nodes_free(), sim.event_nodes_total());
}

TEST(SimulatorTest, MoveOnlyCaptureIsDestroyedOnTeardown) {
  // An event still pending when the simulator dies must destroy its closure
  // (and anything the closure owns) — no leak, no double free.
  auto flag = std::make_shared<int>(7);
  std::weak_ptr<int> watch = flag;
  {
    Simulator sim;
    sim.At(1000, [owned = std::move(flag)] { (void)owned; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorTest, LargeCaptureSpillsToHeapAndStillRuns) {
  // Captures past the inline SBO budget take the heap path; behavior must
  // be identical.
  Simulator sim;
  std::array<uint64_t, 16> big{};
  big[0] = 41;
  big[15] = 1;
  uint64_t out = 0;
  sim.At(5, [big, &out] { out = big[0] + big[15]; });
  sim.Run();
  EXPECT_EQ(out, 42u);
}

TEST(SimulatorTest, CancelHeavyChurnStaysOrdered) {
  // Exceed kPurgeMinEntries with tombstones so the compaction path runs,
  // then verify surviving events still pop in (time, insertion) order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 400; ++i) {
    const TimeNs when = 10 + (i % 97);
    if (i % 2 == 0) {
      doomed.push_back(sim.At(when, [] { ADD_FAILURE() << "cancelled event ran"; }));
    } else {
      order.reserve(200);
      sim.At(when, [&order, i] { order.push_back(i); });
    }
  }
  for (EventHandle& h : doomed) {
    h.Cancel();
  }
  sim.Run();
  ASSERT_EQ(order.size(), 200u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end(),
                             [](int a, int b) { return (10 + a % 97) < (10 + b % 97) ||
                                                       ((10 + a % 97) == (10 + b % 97) && a < b); }));
  EXPECT_EQ(sim.cancelled_events(), 200u);
  // Every tombstone is eventually retired, popped or purged.
  EXPECT_EQ(sim.cancelled_popped(), 200u);
}

TEST(SimulatorTest, PurgeMidDispatchKeepsFifoOrder) {
  // 150 events share one instant and 50 follow later. The first to fire
  // cancels every odd one, which crosses the purge threshold while the
  // same-instant run is partly consumed; the survivors keep their order.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles(200);
  for (int i = 0; i < 200; ++i) {
    const TimeNs when = i < 150 ? 100 : 1000 + 13 * i;
    handles[i] = sim.At(when, [&, i] {
      order.push_back(i);
      if (i == 0) {
        for (int j = 1; j < 200; j += 2) {
          handles[j].Cancel();
        }
        EXPECT_EQ(sim.pending_events(), 99u);  // Purged: no tombstone left.
      }
    });
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 200; i += 2) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.cancelled_events(), 100u);
  EXPECT_EQ(sim.cancelled_popped(), 100u);
}

TEST(SimulatorTest, PurgeFiltersWindowSlotsAndFarBuckets) {
  // 64 events inside the first calendar window (with ties) and 64 in far
  // buckets (with ties, some beyond 2^32 ns). Cancelling 65 of them, from
  // both regions, crosses the purge threshold on the last cancel; the purge
  // must drop every tombstone and keep the survivors in (time, FIFO) order.
  Simulator sim;
  std::vector<std::pair<TimeNs, int>> fired;
  std::vector<EventHandle> handles;
  std::vector<TimeNs> times;
  for (int i = 0; i < 64; ++i) {
    times.push_back(100 + 60 * (i % 32));  // Window slots, two events each.
  }
  for (int i = 0; i < 64; ++i) {
    const TimeNs base = i % 2 == 0 ? Us(5) : (TimeNs{1} << 32);
    times.push_back(base + 5000 * (i % 16));  // Far buckets, ties too.
  }
  for (int i = 0; i < 128; ++i) {
    handles.push_back(sim.At(times[i], [&fired, &sim, i] { fired.emplace_back(sim.Now(), i); }));
  }
  std::vector<bool> cancelled(128, false);
  int cancels = 0;
  for (int i = 0; i < 128 && cancels < 65; i += 2) {
    handles[i].Cancel();
    cancelled[i] = true;
    ++cancels;
  }
  for (int i = 1; cancels < 65; i += 4) {
    handles[i].Cancel();
    cancelled[i] = true;
    ++cancels;
  }
  EXPECT_EQ(sim.cancelled_popped(), 65u);  // Purged, not popped.
  EXPECT_EQ(sim.pending_events(), 63u);
  sim.Run();
  std::vector<std::pair<TimeNs, int>> expected;
  for (int i = 0; i < 128; ++i) {
    if (!cancelled[i]) {
      expected.emplace_back(times[i], i);
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.cancelled_popped(), sim.cancelled_events());
}

TEST(SimulatorTest, WindowBoundariesKeepTimeAndFifoOrder) {
  // Same-time pairs on both sides of several window boundaries, scheduled
  // out of time order; RunUntil stops on, before and after each boundary.
  constexpr TimeNs kWindow = TimeNs{1} << Simulator::kWindowBits;
  Simulator sim;
  std::vector<std::pair<TimeNs, int>> fired;
  std::vector<std::pair<TimeNs, int>> expected;
  int id = 0;
  for (TimeNs w : {3, 1, 2}) {
    for (TimeNs offset : {TimeNs{1}, TimeNs{0}, TimeNs{-1}}) {
      const TimeNs when = w * kWindow + offset;
      for (int k = 0; k < 2; ++k, ++id) {
        sim.At(when, [&fired, &sim, id] { fired.emplace_back(sim.Now(), id); });
        expected.emplace_back(when, id);
      }
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (TimeNs until : {kWindow - 1, kWindow, 2 * kWindow - 2, 2 * kWindow + 1, 3 * kWindow}) {
    sim.RunUntil(until);
    EXPECT_EQ(sim.Now(), until);
    for (const auto& [when, event] : fired) {
      EXPECT_LE(when, until) << "event " << event;
    }
  }
  sim.Run();
  EXPECT_EQ(fired, expected);
  EXPECT_GT(sim.refills(), 0u);
}

TEST(SimulatorTest, RearmCurrentReusesNode) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  sim.At(10, [&] {
    ++fired;
    if (fired < 3) {
      h = sim.RearmCurrent(sim.Now() + 10);
    }
  });
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.event_nodes_total(), 1u);  // One node served all three fires.
  EXPECT_FALSE(h.valid());
}

TEST(DeadlineTimerTest, FiresAtDeadline) {
  Simulator sim;
  int fired = 0;
  DeadlineTimer timer(&sim, [&] { ++fired; });
  timer.Schedule(100);
  sim.RunUntil(99);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(timer.armed());
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(DeadlineTimerTest, ForwardMoveIsLazy) {
  // Classic RTO pattern: push the deadline later on every "ACK". The single
  // in-queue event fires early and chases the final deadline.
  Simulator sim;
  std::vector<TimeNs> fire_times;
  DeadlineTimer timer(&sim, [&] { fire_times.push_back(sim.Now()); });
  timer.Schedule(100);
  sim.RunUntil(50);
  timer.Schedule(200);  // Field write; no new heap entry.
  sim.RunUntil(150);
  timer.Schedule(300);
  sim.Run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 300);
  EXPECT_EQ(sim.cancelled_events(), 0u);  // Lazy moves never cancel.
}

TEST(DeadlineTimerTest, CancelIsLazyAndRearmable) {
  Simulator sim;
  int fired = 0;
  DeadlineTimer timer(&sim, [&] { ++fired; });
  timer.Schedule(100);
  timer.Cancel();
  sim.RunUntil(150);  // The orphan event pops and dies out.
  EXPECT_EQ(fired, 0);
  timer.Schedule(200);  // Re-arming after cancel works.
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(DeadlineTimerTest, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fired = 0;
  {
    DeadlineTimer timer(&sim, [&] { ++fired; });
    timer.Schedule(100);
  }  // Dtor must kill the in-queue closure: it captures the dead timer.
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(DeadlineTimerTest, EarlierDeadlineWins) {
  Simulator sim;
  std::vector<TimeNs> fire_times;
  DeadlineTimer timer(&sim, [&] { fire_times.push_back(sim.Now()); });
  timer.Schedule(500);
  timer.Schedule(100);  // Moving earlier reschedules eagerly.
  sim.Run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 100);
}

// --- Queue-order property (DESIGN.md §8) -----------------------------------
//
// Random At / After(0) / Cancel / RearmCurrent / DeadlineTimer moves, from
// the top level and from inside callbacks, with delays from 0 ns to ms,
// forced same-time ties and random RunUntil boundaries (including just short
// of the next event). A reference ordered on (when, seq) predicts every
// tracked event: each must fire at its time and in scheduling order.
class QueueOrderModel {
 public:
  explicit QueueOrderModel(uint64_t seed) : rng_(seed) {
    for (size_t k = 0; k < kTimers; ++k) {
      timers_.push_back(std::make_unique<DeadlineTimer>(&sim_, [this, k] { TimerFired(k); }));
    }
  }

  void Run(int rounds) {
    for (int round = 0; round < rounds && ok_; ++round) {
      for (int moves = static_cast<int>(rng_() % 6); moves > 0; --moves) {
        RandomMove();
      }
      TimeNs until = sim_.Now();
      switch (rng_() % 6) {
        case 0:
          break;
        case 1:
          until += static_cast<TimeNs>(rng_() % 20);
          break;
        case 2:
          until += RandomDelay();
          break;
        case 3:
          // On, just before or just after the next window boundary.
          until += ToNextBoundary() + static_cast<TimeNs>(rng_() % 3) - 1;
          break;
        case 4:
          // Inside a later window, several boundaries ahead.
          until += ToNextBoundary() + kWindow * static_cast<TimeNs>(rng_() % 3) +
                   static_cast<TimeNs>(rng_() % kWindow);
          break;
        default:
          // Just short of the next tracked event: a peek that must not commit.
          if (!expected_.empty() && expected_.begin()->first.first > until) {
            until = expected_.begin()->first.first - 1;
          }
          break;
      }
      sim_.RunUntil(until);
      // Everything due by `until` has fired and the clock sits on it.
      ASSERT_TRUE(expected_.empty() || expected_.begin()->first.first > until);
      ASSERT_EQ(sim_.Now(), until);
    }
    sim_.Run();
    EXPECT_TRUE(ok_);
    EXPECT_TRUE(expected_.empty());
    for (const auto& timer : timers_) {
      EXPECT_FALSE(timer->armed());
    }
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.cancelled_popped(), sim_.cancelled_events());  // All retired.
  }

  size_t fired() const { return fired_; }
  size_t cancelled() const { return cancelled_; }
  size_t timer_fires() const { return timer_fires_; }

 private:
  using Key = std::pair<TimeNs, uint64_t>;  // (when, seq)
  static constexpr size_t kTimers = 4;

  static constexpr TimeNs kWindow = TimeNs{1} << Simulator::kWindowBits;

  // The delay that lands on the next aligned calendar-window boundary.
  TimeNs ToNextBoundary() const { return (sim_.Now() | (kWindow - 1)) + 1 - sim_.Now(); }

  TimeNs RandomDelay() {
    if (rng_() % 4 == 0) {
      return WindowDelay();
    }
    switch (rng_() % 6) {
      case 0:
        return 0;
      case 1:
        return static_cast<TimeNs>(rng_() % 10);
      case 2:
        return static_cast<TimeNs>(rng_() % 1000);
      case 3:
        return Us(static_cast<int64_t>(rng_() % 100));
      case 4:
        return Ms(1 + static_cast<int64_t>(rng_() % 3));
      default:
        // A forced tie with a pending event.
        return expected_.empty() ? 0 : RandomPending()->first.first - sim_.Now();
    }
  }

  // Delays that straddle the calendar window: its exact span and one either
  // side, the next aligned boundary and one either side, and a far timer
  // beyond 2^32 ns.
  TimeNs WindowDelay() {
    switch (rng_() % 5) {
      case 0:
        return kWindow;
      case 1:
        return kWindow + static_cast<TimeNs>(rng_() % 3) - 1;
      case 2:
        return ToNextBoundary() + static_cast<TimeNs>(rng_() % 3) - 1;
      case 3:
        return ToNextBoundary() + kWindow * static_cast<TimeNs>(rng_() % 4);
      default:
        return (TimeNs{1} << 32) + static_cast<TimeNs>(rng_() % (TimeNs{1} << 20));
    }
  }

  std::map<Key, int>::iterator RandomPending() {
    auto it = expected_.begin();
    std::advance(it, static_cast<long>(rng_() % expected_.size()));
    return it;
  }

  void Track(int id, TimeNs when, EventHandle handle) {
    const Key key{when, next_seq_++};
    expected_.emplace(key, id);
    handles_[id] = handle;
  }

  void Schedule(TimeNs delay, bool use_at) {
    const int id = static_cast<int>(handles_.size());
    handles_.emplace_back();
    auto fn = [this, id] { Fire(id); };
    Track(id, sim_.Now() + delay,
          use_at ? sim_.At(sim_.Now() + delay, fn) : sim_.After(delay, fn));
  }

  void RandomMove() {
    switch (rng_() % 6) {
      case 0:
        Schedule(0, /*use_at=*/false);  // After(0).
        break;
      case 1:
      case 2:
        Schedule(RandomDelay(), /*use_at=*/rng_() % 2 == 0);
        break;
      case 3:
        if (!expected_.empty()) {
          const auto it = RandomPending();
          EventHandle& handle = handles_[it->second];
          EXPECT_TRUE(handle.valid());
          handle.Cancel();
          EXPECT_FALSE(handle.valid());
          expected_.erase(it);
          ++cancelled_;
        }
        break;
      default: {
        const size_t k = rng_() % kTimers;
        if (rng_() % 4 == 0) {
          timers_[k]->Cancel();
        } else {
          deadlines_[k] = sim_.Now() + RandomDelay();
          timers_[k]->Schedule(deadlines_[k]);
        }
        break;
      }
    }
  }

  void Fire(int id) {
    if (!ok_) {
      return;
    }
    const auto next = expected_.begin();
    if (next == expected_.end() || next->second != id || next->first.first != sim_.Now()) {
      ADD_FAILURE() << "event " << id << " fired at " << sim_.Now() << "; expected "
                    << (next == expected_.end() ? -1 : next->second) << " at "
                    << (next == expected_.end() ? -1 : next->first.first);
      ok_ = false;
      return;
    }
    expected_.erase(next);
    ++fired_;
    if (rng_() % 5 == 0) {
      const TimeNs when = sim_.Now() + RandomDelay();
      Track(id, when, sim_.RearmCurrent(when));
    } else if (rng_() % 2 == 0) {
      RandomMove();
    }
  }

  void TimerFired(size_t k) {
    EXPECT_EQ(sim_.Now(), deadlines_[k]) << "timer " << k;
    ++timer_fires_;
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::map<Key, int> expected_;
  std::vector<EventHandle> handles_;  // By event id.
  std::vector<std::unique_ptr<DeadlineTimer>> timers_;
  std::array<TimeNs, kTimers> deadlines_{};
  uint64_t next_seq_ = 0;
  size_t fired_ = 0;
  size_t cancelled_ = 0;
  size_t timer_fires_ = 0;
  bool ok_ = true;
};

TEST(SimulatorTest, RandomScheduleMatchesReferenceOrder) {
  size_t fired = 0;
  size_t cancelled = 0;
  size_t timer_fires = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    QueueOrderModel model(seed);
    model.Run(300);
    fired += model.fired();
    cancelled += model.cancelled();
    timer_fires += model.timer_fires();
  }
  // The moves actually happened.
  EXPECT_GT(fired, 2000u);
  EXPECT_GT(cancelled, 200u);
  EXPECT_GT(timer_fires, 100u);
}

}  // namespace
}  // namespace tas
