// Hierarchical timer wheel for bearer/idle/lease timers (ROADMAP item 2).
//
// Four levels of 256 slots cover deadlines up to 2^32 ticks out; timers
// beyond that wait on an overflow list that is re-examined when the top
// level wraps.  Scheduling and cancelling are O(1); advancing time skips
// empty stretches via per-level occupancy bitmaps, so a million idle UEs
// whose timers sit far in the future cost nothing per tick -- unlike the
// global binary heap, where every armed timer pays log(n) churn.  Finding
// the next stop, next_pending_tick(), is one masked scan of four bitmap
// words per level, whatever the number of occupied slots: a couple of
// hundred through the million-UE day (DESIGN.md section 15.4).
//
// Timer storage is a mem::Slab: a TimerId is a generation-checked handle,
// so an already-fired or double-cancelled id is a safe no-op.  Cancellation
// is lazy: the entry stays linked in its slot (its storage must not be
// reused while the intrusive list still points through it) and is reclaimed
// when the slot next drains.
//
// Determinism: timers fire in (deadline, schedule-sequence) order, exactly
// the ordering contract of sim::EventQueue's heap, which makes the
// wheel-vs-heap differential test meaningful.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "mem/slab.hpp"

namespace softcell::sim {

template <typename Payload = std::uint64_t>
class TimerWheel {
 public:
  using TimerId = mem::Handle;

  static constexpr std::uint32_t kSlotBits = 8;
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;  // 256
  static constexpr std::uint32_t kLevels = 4;               // 2^32 tick span
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  explicit TimerWheel(std::uint64_t start_tick = 0) : now_(start_tick) {
    for (auto& level : heads_) level.fill(TimerId{});
    for (auto& level : bitmap_) level.fill(0);
  }

  [[nodiscard]] std::uint64_t now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return armed_; }

  // Arms a timer for `deadline_tick`.  Deadlines at or before now() fire on
  // the next advance().  Returns a cancellable id.
  TimerId schedule(std::uint64_t deadline_tick, Payload payload) {
    const std::uint64_t eff = std::max(deadline_tick, now_ + 1);
    const TimerId id = entries_.emplace(
        Entry{std::move(payload), deadline_tick, seq_++, TimerId{}, false});
    link(id, eff);
    ++armed_;
    return id;
  }

  // Disarms `id`.  Returns false when the timer already fired or was
  // cancelled (stale handles are harmless).
  bool cancel(TimerId id) {
    Entry* e = entries_.get(id);
    if (e == nullptr || e->cancelled) return false;
    e->cancelled = true;
    --armed_;
    return true;
  }

  // The earliest tick > now() at which advance() may deliver a timer, or
  // kNever.  Exact for level 0; for higher levels and the overflow list it
  // is the cascade boundary, i.e. a lower bound that advance() refines.
  // A level's slots open in rotation order starting with the slot after
  // now()'s (now()'s own slot and those before it open only in the next
  // rotation), so the first occupied slot met scanning from there round to
  // now()'s slot is that level's earliest window: one masked scan of four
  // bitmap words per level, however many slots are occupied.
  [[nodiscard]] std::uint64_t next_pending_tick() const {
    constexpr std::uint32_t kWords = kSlots / 64;
    std::uint64_t best = kNever;
    for (std::uint32_t lvl = 0; lvl < kLevels; ++lvl) {
      const std::uint32_t shift = lvl * kSlotBits;
      const std::uint64_t cur = now_ >> shift;  // now()'s window at lvl
      const std::uint32_t from =
          static_cast<std::uint32_t>(cur + 1) & (kSlots - 1);
      std::uint32_t w = from / 64;
      std::uint64_t bits =
          bitmap_[lvl][w] & (~std::uint64_t{0} << (from % 64));
      for (std::uint32_t i = 0; i < kWords && bits == 0; ++i) {
        w = (w + 1) % kWords;  // the last read is word `from / 64` again
        bits = bitmap_[lvl][w];
      }
      if (bits == 0) continue;
      const std::uint32_t s =
          w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
      // Slot s opens (s - from) mod 256 windows after window cur + 1.
      best = std::min(best, (cur + 1 + ((s - from) & (kSlots - 1))) << shift);
    }
    if (!overflow_.empty()) {
      // Overflow re-examined when the top level wraps (every 2^32 ticks).
      const std::uint64_t span = std::uint64_t{1} << (kLevels * kSlotBits);
      best = std::min(best, (now_ / span + 1) * span);
    }
    return best;
  }

  // Advances the wheel to `to`, invoking sink(deadline_tick, payload) for
  // every armed timer with deadline <= `to`, in (deadline, seq) order.
  // Returns the number of timers delivered.  sink may schedule() new timers
  // (they fire no earlier than the tick after the one being processed) and
  // may cancel() timers, including ones due this same tick.
  template <typename Sink>
  std::size_t advance(std::uint64_t to, Sink&& sink) {
    std::size_t fired = 0;
    while (now_ < to) {
      const std::uint64_t next = next_pending_tick();
      if (next > to) {
        now_ = to;
        break;
      }
      now_ = next;
      cascade_boundaries(next);
      fired += fire_slot(next, sink);
    }
    return fired;
  }

  [[nodiscard]] std::size_t bytes_resident() const {
    // heads_ and bitmap_ are inline members, covered by sizeof(*this);
    // entries_.bytes_resident() already includes the slab's own sizeof.
    return entries_.bytes_resident() - sizeof(entries_) +
           overflow_.capacity() * sizeof(TimerId) +
           scratch_.capacity() * sizeof(Due) + sizeof(*this);
  }

 private:
  struct Entry {
    Payload payload;
    std::uint64_t deadline;  // as requested (may be <= schedule-time now)
    std::uint64_t seq;
    TimerId next;  // intrusive slot list
    bool cancelled;
  };
  struct Due {
    std::uint64_t deadline;
    std::uint64_t seq;
    TimerId id;
  };

  // Links an armed entry by its effective deadline (`eff` >= now_; entries
  // relinked during a cascade with eff == now_ land in the level-0 slot
  // fired right after the cascade).
  void link(TimerId id, std::uint64_t eff) {
    const std::uint64_t delta = eff - now_;
    const std::uint64_t span = std::uint64_t{1} << (kLevels * kSlotBits);
    if (delta >= span) {
      overflow_.push_back(id);
      return;
    }
    std::uint32_t lvl = 0;
    while (delta >= (std::uint64_t{kSlots} << (lvl * kSlotBits))) ++lvl;
    const std::uint32_t slot =
        static_cast<std::uint32_t>(eff >> (lvl * kSlotBits)) & (kSlots - 1);
    Entry* e = entries_.get(id);
    e->next = heads_[lvl][slot];
    heads_[lvl][slot] = id;
    bitmap_[lvl][slot / 64] |= std::uint64_t{1} << (slot % 64);
  }

  // Re-links the contents of every higher-level slot whose window starts at
  // now_ == t, top level first so entries fall all the way down in one
  // pass.  Cancelled entries are reclaimed here instead of relinked.
  void cascade_boundaries(std::uint64_t t) {
    for (std::uint32_t lvl = kLevels - 1; lvl >= 1; --lvl) {
      const std::uint64_t window = std::uint64_t{1} << (lvl * kSlotBits);
      if ((t & (window - 1)) != 0) continue;
      if (lvl == kLevels - 1 && (t & ((window << kSlotBits) - 1)) == 0 &&
          !overflow_.empty()) {
        // Top level wrapped: pull newly-in-range timers out of overflow.
        std::vector<TimerId> keep;
        keep.reserve(overflow_.size());
        for (const TimerId id : overflow_) {
          Entry* e = entries_.get(id);
          if (e == nullptr) continue;
          if (e->cancelled) {
            entries_.erase(id);
          } else if (e->deadline - t < (window << kSlotBits)) {
            relink(id, e->deadline);
          } else {
            keep.push_back(id);
          }
        }
        overflow_ = std::move(keep);
      }
      const std::uint32_t slot =
          static_cast<std::uint32_t>(t >> (lvl * kSlotBits)) & (kSlots - 1);
      TimerId cur = heads_[lvl][slot];
      heads_[lvl][slot] = TimerId{};
      bitmap_[lvl][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
      while (cur) {
        Entry* e = entries_.get(cur);
        if (e == nullptr) break;  // unreachable: linked entries stay live
        const TimerId next = e->next;
        if (e->cancelled)
          entries_.erase(cur);
        else
          relink(cur, e->deadline);
        cur = next;
      }
    }
  }

  void relink(TimerId id, std::uint64_t deadline) {
    link(id, std::max(deadline, now_));
  }

  template <typename Sink>
  std::size_t fire_slot(std::uint64_t t, Sink&& sink) {
    const std::uint32_t slot = static_cast<std::uint32_t>(t) & (kSlots - 1);
    TimerId cur = heads_[0][slot];
    heads_[0][slot] = TimerId{};
    bitmap_[0][slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    scratch_.clear();
    while (cur) {
      Entry* e = entries_.get(cur);
      if (e == nullptr) break;  // unreachable: linked entries stay live
      const TimerId next = e->next;
      if (e->cancelled)
        entries_.erase(cur);
      else
        scratch_.push_back(Due{e->deadline, e->seq, cur});
      cur = next;
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Due& a, const Due& b) {
                return a.deadline != b.deadline ? a.deadline < b.deadline
                                                : a.seq < b.seq;
              });
    std::size_t fired = 0;
    for (const Due& d : scratch_) {
      Entry* e = entries_.get(d.id);
      if (e == nullptr) continue;
      if (e->cancelled) {  // cancelled by an earlier sink this tick
        entries_.erase(d.id);
        continue;
      }
      Payload payload = std::move(e->payload);
      entries_.erase(d.id);
      --armed_;
      sink(d.deadline, std::move(payload));
      ++fired;
    }
    return fired;
  }

  mem::Slab<Entry> entries_;
  std::array<std::array<TimerId, kSlots>, kLevels> heads_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> bitmap_;
  std::vector<TimerId> overflow_;  // deadline >= now + 2^32 at schedule time
  std::vector<Due> scratch_;
  std::uint64_t now_;
  std::uint64_t seq_ = 0;
  std::size_t armed_ = 0;
};

}  // namespace softcell::sim
