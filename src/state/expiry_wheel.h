// Hashed timer wheel for expiry bookkeeping over pooled entries.
//
// The ReplayCache used to keep a deque in insertion order and pay a
// purge call on every insert; the wheel replaces that with time-bucket
// slots: slot = floor(expiry / tick) mod slot_count, each slot an
// intrusive singly linked chain of u32 handles into the caller's pool.
// Insert appends to one slot; advancing to `now` drains only slots
// whose tick range has fully passed, plus a prefix of the one
// partially elapsed slot — O(1) amortized, O(slot_count) worst case
// after a long idle gap.
//
// The wheel never touches entry memory itself. Callers pass accessors
// per call:
//   next(h)      -> uint32_t&  — the entry's intrusive next field
//   expiry_of(h) -> Timestamp  — the entry's absolute expiry
//   on_due(h)                  — consume an expired entry
//
// Exactness: advance(now) fires precisely the entries with
// expiry <= now, provided each entry's expiry is the one it was
// scheduled at. Fully elapsed slots fire wholesale; the current
// (partially elapsed) slot is walked. Each slot tracks whether its
// chain was appended in non-decreasing expiry order, and a sorted walk
// stops at the first not-yet-due entry, so purge work is
// O(entries fired), not O(entries in the slot). Appends need not come
// in expiry order: ReplayCache files a cookie dated ahead of `now`
// further out than the uuids filed after it, and FlowTable re-files a
// touched flow behind newer ones. The first advance that finds its
// current slot unsorted walks it all, fires what is due, and sorts the
// survivors, so later advances within that tick pop only their due
// prefix again: an out-of-order append costs one walk and sort of its
// slot, not a walk per advance.
//
// Dues that grow: an owner may push an entry's expiry later after
// scheduling it (FlowTable files a flow once, at creation, and a
// touch moves its due on) without telling the wheel. expiry_of(h)
// then reports the current expiry, and the wheel re-files an entry it
// finds not yet due: a drained slot re-files into the entry's own
// slot, and so does the walk of the current slot for an entry whose
// expiry lies beyond the current tick, so a grown head never hides
// the due entries behind it. An entry whose expiry grew but stays
// within the current tick still stops a sorted walk; what it hides
// fires once the tick has elapsed. For such owners the guarantee is:
// no entry fires before its current expiry, and every entry has fired
// after an advance to any time at or after its expiry plus one tick.
// ReplayCache never changes an entry's expiry once filed (a cookie
// dated ahead is filed at its final expiry), so it keeps the exact
// contract.
//
// Sizing: callers pick the tick so the wheel period (slot_count *
// tick) comfortably exceeds twice the expiry horizon; then a slot
// never mixes revolutions while the cursor lags at most one horizon
// behind (the worst watermark-gated purge gap). tick_for() and kSlots
// give the shape both owners use. Entries scheduled in the past
// (clock skew) clamp into the current slot and fire on the next
// advance whose `now` covers them — even one before the cursor's seat
// time, which walks just the cursor slot.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/clock.h"

namespace nnn::state {

class ExpiryWheel {
 public:
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();
  static constexpr util::Timestamp kNever =
      std::numeric_limits<util::Timestamp>::max();

  /// The wheel shape ReplayCache and FlowTable share: 256 slots with a
  /// tick of horizon/64 rounded up, so one revolution spans at least
  /// 4x the horizon and a slot never mixes revolutions even when a
  /// watermark-gated cursor lags a full horizon behind.
  static constexpr size_t kSlots = 256;
  static constexpr util::Timestamp tick_for(util::Timestamp horizon) {
    return std::max<util::Timestamp>(1, (horizon + 63) / 64);
  }

  struct AdvanceResult {
    size_t fired = 0;
    /// Lower bound on the earliest remaining expiry (kNever when the
    /// wheel is empty). Exact for the current slot, a slot floor for
    /// later slots — never above the true minimum, so it is a sound
    /// purge watermark. With grown dues (see the file comment) it can
    /// sit above an entry hidden behind a grown head in the current
    /// slot, but never past the end of the current tick.
    util::Timestamp next_due_bound = kNever;
  };

  ExpiryWheel() = default;

  /// `slots` must be a power of two. `start` seats the cursor; entries
  /// scheduled before it clamp into the current slot.
  void init(util::Timestamp tick, size_t slots, util::Timestamp start) {
    assert(tick > 0 && slots >= 2 && (slots & (slots - 1)) == 0);
    tick_ = tick;
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    cursor_ = floor_div(start, tick_);
    size_ = 0;
    occupied_ = 0;
  }

  /// Re-seat the cursor on an empty wheel. Callers do this when the
  /// wheel drained and time moved on, so the next schedule() lands
  /// within one revolution of the cursor.
  void reseat(util::Timestamp now) {
    assert(size_ == 0);
    const int64_t t = floor_div(now, tick_);
    if (t > cursor_) cursor_ = t;
  }

  bool ready() const { return !slots_.empty(); }
  size_t size() const { return size_; }
  size_t slot_count() const { return slots_.size(); }
  /// Slots currently holding at least one entry.
  size_t occupied_slots() const { return occupied_; }
  util::Timestamp tick() const { return tick_; }
  size_t memory_bytes() const {
    return slots_.size() * sizeof(Slot) + kept_.capacity() * sizeof(Kept);
  }

  template <class NextRef>
  void schedule(uint32_t handle, util::Timestamp expires, NextRef&& next) {
    assert(ready());
    int64_t t = floor_div(expires, tick_);
    if (t < cursor_) t = cursor_;  // past-due: fires on the next advance
    assert(t - cursor_ < static_cast<int64_t>(slots_.size()) &&
           "ExpiryWheel: expiry beyond one revolution");
    append(slot_at(t), handle, expires, next);
    ++size_;
  }

  /// Fire every entry with expiry <= now. Entries found in a drained
  /// slot that are not yet due (possible only via clock skew) are
  /// refiled instead of fired.
  template <class NextRef, class ExpiryOf, class OnDue>
  AdvanceResult advance(util::Timestamp now, NextRef&& next,
                        ExpiryOf&& expiry_of, OnDue&& on_due) {
    AdvanceResult result;
    if (!ready()) return result;
    const int64_t now_tick = floor_div(now, tick_);
    if (now_tick < cursor_) {
      // `now` precedes the cursor (a back-dated purge against a wheel
      // seated later, or clock retreat). The cursor never moves
      // backwards, but exactness survives: every entry with
      // expiry <= now < cursor*tick sits in the cursor slot — past-due
      // schedules clamp there and drains refile ahead of the cursor —
      // so walking that one slot fires exactly the due set.
      util::Timestamp kept_min = kNever;
      Slot& slot = slots_[static_cast<uint64_t>(cursor_) & mask_];
      uint32_t h = detach(slot);
      while (h != kNil) {
        const uint32_t nxt = next(h);
        const util::Timestamp expires = expiry_of(h);
        if (expires <= now) {
          on_due(h);
          --size_;
          ++result.fired;
        } else {
          if (expires < kept_min) kept_min = expires;
          append(slot, h, expires, next);
        }
        h = nxt;
      }
      if (size_ == 0) {
        result.next_due_bound = kNever;
      } else {
        const util::Timestamp later = earliest_bound(1);
        result.next_due_bound = kept_min < later ? kept_min : later;
      }
      return result;
    }
    // Fully elapsed ticks [cursor_, now_tick): every current-revolution
    // entry in them is due (expiry < now_tick * tick <= now).
    const int64_t span = now_tick - cursor_;
    const int64_t full =
        span < static_cast<int64_t>(slots_.size())
            ? span
            : static_cast<int64_t>(slots_.size());
    int64_t t = cursor_;
    cursor_ = now_tick;  // set first so refiles clamp correctly
    for (int64_t k = 0; k < full; ++k, ++t) {
      uint32_t h = detach(slot_at(t));
      while (h != kNil) {
        const uint32_t nxt = next(h);
        const util::Timestamp expires = expiry_of(h);
        if (expires <= now) {
          on_due(h);
          --size_;
          ++result.fired;
        } else {
          append(slot_at(clamp_tick(expires)), h, expires, next);
        }
        h = nxt;
      }
    }
    // The partially elapsed current tick: pop the due prefix when the
    // chain is sorted, else walk it all once and leave it sorted.
    // Either way we learn the minimum of what remains (exact unless a
    // due grew within this tick).
    util::Timestamp kept_min = kNever;
    Slot& slot = slots_[static_cast<uint64_t>(cursor_) & mask_];
    if (slot.sorted) {
      const bool was_nonempty = slot.head != kNil;
      while (slot.head != kNil) {
        const uint32_t h = slot.head;
        const util::Timestamp expires = expiry_of(h);
        if (expires > now && !beyond_current_tick(expires)) break;
        slot.head = next(h);
        if (expires <= now) {
          on_due(h);
          --size_;
          ++result.fired;
        } else {
          // A due that grew past this tick: re-file it so it hides no
          // due entry behind it.
          append(slot_at(floor_div(expires, tick_)), h, expires, next);
        }
      }
      if (slot.head == kNil) {
        if (was_nonempty) {
          slot.tail = kNil;
          --occupied_;
        }
      } else {
        kept_min = expiry_of(slot.head);
      }
    } else {
      // Fire what is due, re-file what lies beyond this tick, and
      // re-link the rest of the chain in expiry order, so the next
      // advance within this tick takes the sorted branch.
      kept_.clear();
      uint32_t h = detach(slot);
      while (h != kNil) {
        const uint32_t nxt = next(h);
        const util::Timestamp expires = expiry_of(h);
        if (expires <= now) {
          on_due(h);
          --size_;
          ++result.fired;
        } else if (beyond_current_tick(expires)) {
          append(slot_at(floor_div(expires, tick_)), h, expires, next);
        } else {
          kept_.push_back(Kept{expires, h});
        }
        h = nxt;
      }
      std::sort(kept_.begin(), kept_.end(),
                [](const Kept& a, const Kept& b) {
                  return a.expires < b.expires;
                });
      for (const Kept& k : kept_) append(slot, k.handle, k.expires, next);
      if (!kept_.empty()) kept_min = kept_.front().expires;
    }
    if (size_ == 0) {
      result.next_due_bound = kNever;
    } else {
      const util::Timestamp later = earliest_bound(1);
      result.next_due_bound = kept_min < later ? kept_min : later;
    }
    return result;
  }

  /// Pop the head of the first non-empty slot from the cursor,
  /// regardless of due-ness — the capacity-clamp eviction path.
  /// Returns kNil when empty. With monotone schedule times this is
  /// oldest-first.
  template <class NextRef>
  uint32_t pop_front(NextRef&& next) {
    Slot* slot = const_cast<Slot*>(front_slot());
    if (slot == nullptr) return kNil;
    const uint32_t h = slot->head;
    slot->head = next(h);
    if (slot->head == kNil) {
      slot->tail = kNil;
      slot->sorted = true;
      --occupied_;
    }
    --size_;
    return h;
  }

  /// The handle pop_front() would return, left in place (kNil when
  /// empty). Its chain successor, through the caller's next field, is
  /// the one after it unless that slot ends there.
  uint32_t front() const {
    const Slot* slot = front_slot();
    return slot == nullptr ? kNil : slot->head;
  }

 private:
  struct Slot {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    /// Expiry of the most recently appended entry, and whether the
    /// whole chain is in non-decreasing expiry order.
    util::Timestamp last = 0;
    bool sorted = true;
  };
  /// A survivor of an unsorted walk, kept to re-link in expiry order.
  struct Kept {
    util::Timestamp expires;
    uint32_t handle;
  };

  static constexpr int64_t floor_div(int64_t a, int64_t b) {
    const int64_t q = a / b;
    return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
  }

  Slot& slot_at(int64_t tick_index) {
    return slots_[static_cast<uint64_t>(tick_index) & mask_];
  }

  /// Whether `expires` belongs to a later slot of the current
  /// revolution (so re-filing it there cannot land back in the slot
  /// being walked).
  bool beyond_current_tick(util::Timestamp expires) const {
    const int64_t ahead = floor_div(expires, tick_) - cursor_;
    return ahead > 0 && ahead < static_cast<int64_t>(slots_.size());
  }

  int64_t clamp_tick(util::Timestamp expires) const {
    const int64_t t = floor_div(expires, tick_);
    return t < cursor_ ? cursor_ : t;
  }

  template <class NextRef>
  void append(Slot& slot, uint32_t handle, util::Timestamp expires,
              NextRef&& next) {
    next(handle) = kNil;
    if (slot.head == kNil) {
      slot.head = slot.tail = handle;
      slot.sorted = true;
      ++occupied_;
    } else {
      next(slot.tail) = handle;
      slot.tail = handle;
      if (expires < slot.last) slot.sorted = false;
    }
    slot.last = expires;
  }

  /// The first non-empty slot from the cursor; null when empty.
  const Slot* front_slot() const {
    if (size_ == 0) return nullptr;
    for (size_t k = 0; k < slots_.size(); ++k) {
      const Slot& slot = slots_[(static_cast<uint64_t>(cursor_) + k) & mask_];
      if (slot.head != kNil) return &slot;
    }
    assert(false && "ExpiryWheel size/slot bookkeeping out of sync");
    return nullptr;
  }

  uint32_t detach(Slot& slot) {
    const uint32_t head = slot.head;
    if (head != kNil) --occupied_;
    slot.head = slot.tail = kNil;
    slot.sorted = true;
    return head;
  }

  /// Slot-floor lower bound over slots starting `from` ticks past the
  /// cursor (kNever when all scanned slots are empty).
  util::Timestamp earliest_bound(size_t from) const {
    for (size_t k = from; k < slots_.size(); ++k) {
      const int64_t t = cursor_ + static_cast<int64_t>(k);
      if (slots_[static_cast<uint64_t>(t) & mask_].head != kNil) {
        return t * tick_;
      }
    }
    return kNever;
  }

  std::vector<Slot> slots_;
  std::vector<Kept> kept_;  // scratch for the unsorted walk
  uint64_t mask_ = 0;
  util::Timestamp tick_ = 1;
  int64_t cursor_ = 0;
  size_t size_ = 0;
  size_t occupied_ = 0;
};

}  // namespace nnn::state
