#include "sim/event_queue.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace softcell {

void EventQueue::at(SimTime t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
  heap_.push(Item{t, seq_++, std::move(fn)});
}

std::uint64_t EventQueue::tick_of(SimTime t) {
  return t <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(t * kTicksPerSecond));
}

EventQueue::TimerId EventQueue::timer_at(SimTime t, std::function<void()> fn) {
  return wheel_.schedule(tick_of(t), std::move(fn));
}

std::size_t EventQueue::step_merged(SimTime horizon) {
  for (;;) {
    const bool have_heap = !heap_.empty() && heap_.top().t < horizon;
    const std::uint64_t wtick = wheel_.next_pending_tick();
    const bool have_wheel =
        wtick != sim::TimerWheel<std::function<void()>>::kNever &&
        time_of(wtick) < horizon;
    if (!have_heap && !have_wheel) return 0;
    if (have_heap && (!have_wheel || heap_.top().t <= time_of(wtick))) {
      // priority_queue::top is const; move via const_cast on a copy-out.
      Item item = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      if (item.t > now_) now_ = item.t;
      item.fn();
      return 1;
    }
    // Wheel side.  next_pending_tick() may be a cascade boundary rather
    // than a real deadline; advancing there fires nothing and the loop
    // re-arbitrates with the refined bound.
    const std::size_t fired =
        wheel_.advance(wtick, [this](std::uint64_t, std::function<void()>&& fn) {
          const SimTime t = time_of(wheel_.now());
          if (t > now_) now_ = t;
          fn();
        });
    const SimTime t = time_of(wheel_.now());
    if (t > now_) now_ = t;
    if (fired > 0) return fired;
  }
}

bool EventQueue::step() {
  return step_merged(std::numeric_limits<SimTime>::infinity()) > 0;
}

std::size_t EventQueue::run(std::size_t max_events) {
  constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();
  std::size_t n = 0;
  for (std::size_t ran; n < max_events && (ran = step_merged(kForever)) > 0;)
    n += ran;
  return n;
}

std::size_t EventQueue::run_until(SimTime t) {
  if (t < now_) throw std::invalid_argument("EventQueue: running until the past");
  std::size_t n = 0;
  for (std::size_t ran; (ran = step_merged(t)) > 0;) n += ran;
  // Move the wheel base to the last tick strictly before t, so timers armed
  // later clamp against a current clock.  Nothing can fire here: every
  // deadline below t was drained by the loop above.
  std::uint64_t tb = tick_of(t);
  if (time_of(tb) >= t && tb > 0) --tb;
  if (tb > wheel_.now())
    wheel_.advance(tb, [](std::uint64_t, std::function<void()>&& fn) { fn(); });
  now_ = t;
  return n;
}

}  // namespace softcell
