// Lock-free bounded multi-producer/single-consumer ring.
//
// Companion to spsc_ring.h for the paths where many threads write and
// one reads: worker threads publishing verdict records to whoever
// drains them.
//
// This is the classic Vyukov bounded queue: every slot carries a
// sequence number that encodes whose turn it is. A producer claims a
// slot with one CAS on the tail ticket, writes the value, then
// publishes by bumping the slot's sequence; the consumer waits for the
// sequence to say "written", reads, and recycles the slot one lap
// ahead. Producers never wait on each other beyond the CAS, and a slot
// claimed but not yet published only delays the consumer, not other
// producers' claims.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/spsc_ring.h"  // kCacheLineSize, ring_capacity_for

namespace nnn::runtime {

template <typename T>
class MpscRing {
 public:
  explicit MpscRing(size_t capacity)
      : mask_(ring_capacity_for(capacity) - 1),
        cells_(ring_capacity_for(capacity)) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Any thread. Returns false when the ring is full — callers treat
  /// that as fail-open (count and carry on), never as a wait.
  bool try_push(T&& value) {
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failed: `pos` was refreshed, retry with the new ticket.
      } else if (dif < 0) {
        return false;  // full (slot still holds last lap's value)
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer only (single thread).
  bool try_pop(T& out) { return pop_batch(&out, 1) == 1; }

  /// Consumer only: drain up to `max` elements, returns how many.
  size_t pop_batch(T* out, size_t max) {
    size_t n = 0;
    size_t pos = head_.load(std::memory_order_relaxed);
    while (n < max) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.sequence.load(std::memory_order_acquire);
      if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) != 0) {
        break;  // slot not yet published
      }
      out[n++] = std::move(cell.value);
      // Recycle the slot for the producer one lap ahead.
      cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
    }
    if (n != 0) head_.store(pos, std::memory_order_relaxed);
    return n;
  }

  /// Approximate under concurrency.
  bool empty() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const Cell& cell = cells_[head & mask_];
    return cell.sequence.load(std::memory_order_acquire) != head + 1;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<size_t> sequence{0};
    T value{};
  };

  const size_t mask_;
  std::vector<Cell> cells_;
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};  // producers
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};  // consumer
};

}  // namespace nnn::runtime
