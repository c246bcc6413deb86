// Hierarchical timer wheel: exact delivery at tick boundaries (including
// the cascade boundaries between levels), generation-checked cancellation,
// far-future deadlines via the overflow list, and the determinism contract
// -- (deadline, schedule-sequence) order, the same ordering the EventQueue
// heap has always provided (pinned differentially at the bottom).
#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace softcell {
namespace {

using Wheel = sim::TimerWheel<std::uint64_t>;

std::vector<std::pair<std::uint64_t, std::uint64_t>> drain(Wheel& w,
                                                           std::uint64_t to) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fired;
  w.advance(to, [&](std::uint64_t deadline, std::uint64_t payload) {
    fired.emplace_back(deadline, payload);
  });
  return fired;
}

TEST(TimerWheel, FiresAtExactTicks) {
  Wheel w;
  w.schedule(5, 50);
  w.schedule(3, 30);
  w.schedule(9, 90);
  EXPECT_EQ(w.pending(), 3u);
  EXPECT_EQ(w.next_pending_tick(), 3u);

  auto fired = drain(w, 4);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(std::uint64_t{3}, std::uint64_t{30}));
  EXPECT_EQ(w.now(), 4u);

  fired = drain(w, 100);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, 5u);
  EXPECT_EQ(fired[1].first, 9u);
  EXPECT_EQ(w.pending(), 0u);
  EXPECT_EQ(w.next_pending_tick(), Wheel::kNever);
}

TEST(TimerWheel, PastDeadlinesFireOnNextAdvance) {
  Wheel w;
  drain(w, 100);
  w.schedule(7, 1);    // already past: effective deadline is now+1
  w.schedule(100, 2);  // at now: same
  auto fired = drain(w, 101);
  ASSERT_EQ(fired.size(), 2u);
  // Delivered with their *requested* deadlines, in (deadline, seq) order.
  EXPECT_EQ(fired[0], std::make_pair(std::uint64_t{7}, std::uint64_t{1}));
  EXPECT_EQ(fired[1], std::make_pair(std::uint64_t{100}, std::uint64_t{2}));
}

TEST(TimerWheel, Level0BoundaryTicks) {
  // Deadlines straddling the 256-tick level-0 window: 255 is in the level-0
  // window at schedule time, 256 and 257 sit in level 1 until the cascade
  // at tick 256 drops them down.  All must fire at exactly their tick.
  Wheel w;
  w.schedule(255, 1);
  w.schedule(256, 2);
  w.schedule(257, 3);
  w.schedule(511, 4);
  w.schedule(512, 5);

  auto fired = drain(w, 10'000);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired[0].first, 255u);
  EXPECT_EQ(fired[1].first, 256u);
  EXPECT_EQ(fired[2].first, 257u);
  EXPECT_EQ(fired[3].first, 511u);
  EXPECT_EQ(fired[4].first, 512u);
}

TEST(TimerWheel, HigherLevelCascadeBoundaries) {
  // Level-2 window boundary (2^16) and level-3 window boundary (2^24):
  // entries cascade down exactly once and fire on time.
  Wheel w;
  const std::uint64_t l2 = std::uint64_t{1} << 16;
  const std::uint64_t l3 = std::uint64_t{1} << 24;
  w.schedule(l2 - 1, 1);
  w.schedule(l2, 2);
  w.schedule(l2 + 1, 3);
  w.schedule(l3, 4);
  w.schedule(l3 + 77, 5);

  auto fired = drain(w, l3 + 100);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired[0].first, l2 - 1);
  EXPECT_EQ(fired[1].first, l2);
  EXPECT_EQ(fired[2].first, l2 + 1);
  EXPECT_EQ(fired[3].first, l3);
  EXPECT_EQ(fired[4].first, l3 + 77);
}

TEST(TimerWheel, CancelDisarmsAndStaleIdsAreSafe) {
  Wheel w;
  const auto a = w.schedule(10, 1);
  const auto b = w.schedule(20, 2);
  EXPECT_TRUE(w.cancel(a));
  EXPECT_FALSE(w.cancel(a));  // double cancel: no-op
  EXPECT_EQ(w.pending(), 1u);

  auto fired = drain(w, 100);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].second, 2u);
  EXPECT_FALSE(w.cancel(b));         // already fired
  EXPECT_FALSE(w.cancel(Wheel::TimerId{}));  // null id
}

TEST(TimerWheel, CancelDuringFireSuppressesSameTickTimer) {
  sim::TimerWheel<int> w;
  sim::TimerWheel<int>::TimerId second{};
  int fired_payload = 0;
  int count = 0;
  w.schedule(5, 1);
  second = w.schedule(5, 2);
  w.advance(10, [&](std::uint64_t, int p) {
    ++count;
    fired_payload = p;
    w.cancel(second);  // sink cancels a timer due this very tick
  });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(fired_payload, 1);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, SinkMayScheduleFutureTimers) {
  Wheel w;
  w.schedule(1, 1);
  std::vector<std::uint64_t> deadlines;
  w.advance(10, [&](std::uint64_t d, std::uint64_t payload) {
    deadlines.push_back(d);
    if (payload < 3) w.schedule(d + 2, payload + 1);
  });
  EXPECT_EQ(deadlines, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(TimerWheel, FarFutureOverflowFiresExactly) {
  const std::uint64_t span = std::uint64_t{1} << 32;
  Wheel w;
  w.schedule(span + 123, 7);      // beyond the 4-level span: overflow list
  w.schedule(2 * span + 456, 8);  // two wraps out
  EXPECT_EQ(w.pending(), 2u);
  // Nothing in the wheel proper: the next examination point is the wrap.
  EXPECT_EQ(w.next_pending_tick(), span);

  auto fired = drain(w, span + 200);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(span + 123, std::uint64_t{7}));

  fired = drain(w, 2 * span + 1000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(2 * span + 456, std::uint64_t{8}));
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, CancelledOverflowTimerNeverFires) {
  const std::uint64_t span = std::uint64_t{1} << 32;
  Wheel w;
  const auto id = w.schedule(span + 5, 1);
  EXPECT_TRUE(w.cancel(id));
  EXPECT_EQ(drain(w, span + 100).size(), 0u);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimerWheel, AdvanceSkipsEmptyStretchesCheaply) {
  // A timer parked millions of ticks out must not cost per-tick work:
  // advance() jumps via next_pending_tick(), so this completes instantly.
  Wheel w;
  w.schedule(50'000'000, 1);
  auto fired = drain(w, 60'000'000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 50'000'000u);
}

// --- determinism: wheel order == event-heap order ---------------------------
// The wheel promises (deadline, schedule-sequence) delivery, the exact
// contract of the EventQueue heap.  Replay a randomized schedule through
// both and require identical firing sequences.

TEST(TimerWheel, DeterministicAndMatchesHeapOrdering) {
  Rng rng(20260808);
  struct Sched {
    std::uint64_t deadline;
    std::uint64_t payload;
  };
  std::vector<Sched> plan;
  for (std::uint64_t i = 0; i < 2000; ++i)
    plan.push_back(Sched{1 + rng.next_below(5000), i});

  // Reference: a (deadline, seq) stable sort, i.e. heap semantics.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expect;
  for (const Sched& s : plan) expect.emplace_back(s.deadline, s.payload);
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  for (int run = 0; run < 2; ++run) {  // twice: determinism across runs
    Wheel w;
    for (const Sched& s : plan) w.schedule(s.deadline, s.payload);
    const auto fired = drain(w, 10'000);
    ASSERT_EQ(fired, expect) << "run " << run;
  }
}

// --- randomized differential: every level, the overflow list, the wrap ----
// Deadlines spread over levels 0-3 and past the 2^32-tick span, armed from
// wheel positions across the whole run (between stops and from inside the
// sink), with cancels both outside and inside the sink.  The reference is
// an ordered (deadline, seq) model of the live timers: every delivery must
// be its least entry, at its exact tick.  Armed from late positions, the
// higher levels hold slots behind their current slot, which
// next_pending_tick() must place in the next rotation.

class WheelModel {
 public:
  static constexpr std::uint64_t kBudget = 3000;  // timers scheduled per run

  // The wheel starts at a random tick below 2^36, so every level's current
  // slot starts somewhere other than 0.
  explicit WheelModel(std::uint64_t seed)
      : rng_(seed), w_(rng_.next_below(std::uint64_t{1} << 36)) {}

  Wheel& wheel() { return w_; }
  [[nodiscard]] std::uint64_t scheduled() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return live_.empty(); }

  // A delay on a random level (0-3), or, one time in nine, past the 2^32
  // span onto the overflow list.
  std::uint64_t random_delay() {
    const std::uint64_t pick = rng_.next_below(9);
    if (pick == 8) return kSpan + rng_.next_below(kSpan);
    const std::uint64_t lvl = pick / 2;
    const std::uint64_t lo = lvl == 0 ? 1 : std::uint64_t{1} << (8 * lvl);
    return lo + rng_.next_below((std::uint64_t{1} << (8 * lvl + 8)) - lo);
  }

  void schedule() {
    if (scheduled() == kBudget) return;
    const std::uint64_t deadline = w_.now() + random_delay();
    const std::uint64_t seq = scheduled();
    ids_.push_back(w_.schedule(deadline, seq));
    deadlines_.push_back(deadline);
    live_.emplace(deadline, seq);
  }

  // Cancels one of the last 256 timers armed; a fired or cancelled one
  // must report false.
  void cancel_recent() {
    if (ids_.empty()) return;
    const std::uint64_t back =
        rng_.next_below(std::min<std::uint64_t>(256, scheduled()));
    const std::uint64_t seq = scheduled() - 1 - back;
    const bool armed = live_.erase({deadlines_[seq], seq}) == 1;
    EXPECT_EQ(w_.cancel(ids_[seq]), armed) << "seq " << seq;
  }

  // Arms or cancels at random: the churn between two stops.
  void churn() {
    if (rng_.next_below(2) == 0) schedule();
    if (rng_.next_below(8) == 0) cancel_recent();
  }

  // Checks one delivery against the model, then re-arms, cancels the next
  // timer due this same tick, or cancels a recent one, at random.
  void deliver(std::uint64_t deadline, std::uint64_t seq) {
    ASSERT_FALSE(live_.empty()) << "delivery with no live timer";
    EXPECT_EQ(std::make_pair(deadline, seq), *live_.begin());
    EXPECT_EQ(deadline, w_.now());
    live_.erase(live_.begin());
    const std::uint64_t roll = rng_.next_below(8);
    if (roll < 3) {
      schedule();
    } else if (roll == 3 && !live_.empty() &&
               live_.begin()->first == w_.now()) {
      const std::uint64_t next = live_.begin()->second;
      live_.erase(live_.begin());
      EXPECT_TRUE(w_.cancel(ids_[next]));
    } else if (roll == 4) {
      cancel_recent();
    }
  }

  // now() < next_pending_tick() <= the earliest live deadline.
  void check_bound() {
    const std::uint64_t next = w_.next_pending_tick();
    EXPECT_LT(w_.now(), next);
    if (!live_.empty()) {
      EXPECT_LE(next, live_.begin()->first);
    }
  }

  std::size_t advance(std::uint64_t to) {
    return w_.advance(to, [this](std::uint64_t deadline, std::uint64_t seq) {
      deliver(deadline, seq);
    });
  }

 private:
  static constexpr std::uint64_t kSpan = std::uint64_t{1} << 32;

  Rng rng_;
  Wheel w_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> live_;  // (deadline, seq)
  std::vector<Wheel::TimerId> ids_;                           // by seq
  std::vector<std::uint64_t> deadlines_;                      // by seq
};

TEST(TimerWheel, RandomizedStopByStopMatchesModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    WheelModel m(seed);
    for (int i = 0; i < 300; ++i) m.schedule();
    std::uint64_t stops = 0;
    for (std::uint64_t next;
         (next = m.wheel().next_pending_tick()) != Wheel::kNever;) {
      m.check_bound();
      EXPECT_EQ(m.advance(next - 1), 0u);  // nothing is due before the stop
      EXPECT_EQ(m.wheel().next_pending_tick(), next);
      m.advance(next);  // fires, reaps or cascades
      ++stops;
      m.churn();
      if (HasFailure()) return;
    }
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.wheel().pending(), 0u);
    EXPECT_EQ(m.scheduled(), WheelModel::kBudget);
    EXPECT_LE(stops, 4 * m.scheduled());
  }
}

TEST(TimerWheel, RandomizedTargetsMatchModel) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    WheelModel m(seed);
    for (int i = 0; i < 300; ++i) m.schedule();
    while (m.scheduled() < WheelModel::kBudget ||
           m.wheel().next_pending_tick() != Wheel::kNever) {
      const std::uint64_t to = m.wheel().now() + m.random_delay();
      m.advance(to);
      EXPECT_EQ(m.wheel().now(), to);
      m.check_bound();
      m.churn();
      if (HasFailure()) return;
    }
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.wheel().pending(), 0u);
    EXPECT_EQ(m.scheduled(), WheelModel::kBudget);
  }
}

TEST(EventQueueTimers, MergedClockHeapWinsTies) {
  // A heap event and a wheel timer at the same instant: the heap event runs
  // first (pre-wheel behavior of pure workload runs is bit-identical).
  EventQueue q;
  std::vector<int> order;
  q.timer_at(0.5, [&] { order.push_back(2); });
  q.at(0.5, [&] { order.push_back(1); });
  q.at(0.25, [&] { order.push_back(0); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTimers, CancelAndRunUntil) {
  EventQueue q;
  int fired = 0;
  const auto a = q.timer_after(0.010, [&] { ++fired; });
  q.timer_after(0.020, [&] { ++fired; });
  EXPECT_EQ(q.timers_pending(), 2u);
  EXPECT_TRUE(q.cancel_timer(a));
  EXPECT_FALSE(q.cancel_timer(a));

  q.run_until(0.015);
  EXPECT_EQ(fired, 0);  // only the cancelled timer was due
  q.run_until(0.050);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.timers_pending(), 0u);
  EXPECT_DOUBLE_EQ(q.now(), 0.050);
}

TEST(EventQueueTimers, TimerChainsReschedule) {
  // An idle-timer pattern: each firing re-arms itself until a budget runs
  // out; the merged clock must keep heap events interleaved correctly.
  EventQueue q;
  std::vector<double> timer_times, event_times;
  std::function<void()> rearm = [&] {
    timer_times.push_back(q.now());
    if (timer_times.size() < 5) q.timer_after(0.010, rearm);
  };
  q.timer_after(0.010, rearm);
  q.at(0.025, [&] { event_times.push_back(q.now()); });
  q.run();
  ASSERT_EQ(timer_times.size(), 5u);
  EXPECT_DOUBLE_EQ(timer_times[0], 0.010);
  EXPECT_DOUBLE_EQ(timer_times[4], 0.050);
  ASSERT_EQ(event_times.size(), 1u);
  EXPECT_DOUBLE_EQ(event_times[0], 0.025);
}

}  // namespace
}  // namespace softcell
