// Minimal discrete-event scheduler.
//
// Workload generators schedule UE arrivals, handoffs and flow starts against
// simulated time; the queue runs them in deterministic (time, insertion)
// order.
//
// Two scheduling surfaces share one clock:
//   * at()/after() -- one-shot workload events on a binary heap, unchanged.
//   * timer_at()/timer_after()/cancel_timer() -- bearer/idle/lease timers on
//     a hierarchical TimerWheel (1 ms ticks), so a million armed idle timers
//     cost O(1) per tick and cancellation is a generation-checked no-op
//     instead of a heap tombstone.
// step()/run()/run_until() merge the two in time order; at equal instants
// heap events run before wheel timers (the pre-wheel behavior of pure
// workload runs is bit-identical).  Each merge step asks the wheel for its
// next stop, which costs one masked scan of four bitmap words per wheel
// level whatever the number of armed timers.  When that query visited every
// occupied slot, the traced million-UE day spent 1.3 us of queue time per
// event; it now spends about 0.36 us (DESIGN.md section 15.4).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/timer_wheel.hpp"

namespace softcell {

using SimTime = double;  // seconds of simulated time

class EventQueue {
 public:
  using TimerId = sim::TimerWheel<std::function<void()>>::TimerId;

  // Wheel tick resolution: 1 ms of simulated time per tick.
  static constexpr double kTicksPerSecond = 1000.0;

  void at(SimTime t, std::function<void()> fn);
  void after(SimTime dt, std::function<void()> fn) { at(now_ + dt, std::move(fn)); }

  // Arms a cancellable timer.  Timers at or before now() fire on the next
  // step; firing times are quantized to the wheel tick.
  TimerId timer_at(SimTime t, std::function<void()> fn);
  TimerId timer_after(SimTime dt, std::function<void()> fn) {
    return timer_at(now_ + dt, std::move(fn));
  }
  // Disarms a timer; false when it already fired or was cancelled.
  bool cancel_timer(TimerId id) { return wheel_.cancel(id); }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::size_t timers_pending() const { return wheel_.pending(); }

  // Runs the next event (one heap event, or every timer due at the next
  // armed tick); false when nothing is scheduled.
  bool step();
  // Runs events until the queue drains or at least `max_events` callbacks
  // ran; returns how many callbacks ran.  The timers of one wheel tick run
  // together, so the last step may carry the count past the cap.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  // Runs all events scheduled strictly before `t`, then advances now() to t;
  // returns how many callbacks ran.  Throws std::invalid_argument when `t`
  // is before now(), as at() does: the clock never runs backwards.
  std::size_t run_until(SimTime t);

 private:
  struct Item {
    SimTime t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  [[nodiscard]] static std::uint64_t tick_of(SimTime t);
  [[nodiscard]] static SimTime time_of(std::uint64_t tick) {
    return static_cast<SimTime>(tick) / kTicksPerSecond;
  }

  // Runs one scheduling decision: the earlier of (next heap event, next
  // armed wheel tick).  Returns how many callbacks ran (0 = idle).
  std::size_t step_merged(SimTime horizon);

  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  sim::TimerWheel<std::function<void()>> wheel_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace softcell
