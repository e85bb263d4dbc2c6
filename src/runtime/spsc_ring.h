// Lock-free single-producer/single-consumer ring (§4.6 scale-out).
//
// The dataplane runtime moves packets between the load-balancer thread
// and worker threads through these rings — the software analogue of
// the NIC RX queues an NDN-DPDK-style run-to-completion pipeline polls.
// Design points:
//   - fixed capacity, power-of-two, indices are free-running counters
//     masked on access (no modulo, no ABA);
//   - head and tail live on separate cache lines so the producer and
//     consumer never false-share;
//   - each side keeps a *cached* copy of the other side's index and
//     refreshes it only when the ring looks full/empty, which removes
//     most cross-core coherence traffic from the hot path;
//   - acquire/release pairs on the indices are the only synchronization:
//     the release store of `tail_` publishes the slots written before
//     it, the acquire load on the consumer side makes them visible
//     (and symmetrically for `head_` when slots are recycled).
//
// Exactly ONE thread may push and ONE thread may pop. For the
// many-producers case (verdict/stat collection) see mpsc_ring.h.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace nnn::runtime {

inline constexpr size_t kCacheLineSize = 64;

/// Round up to the next power of two (minimum 2).
constexpr size_t ring_capacity_for(size_t requested) {
  size_t cap = 2;
  while (cap < requested) cap <<= 1;
  return cap;
}

template <typename T>
class SpscRing {
 public:
  /// `capacity` is rounded up to a power of two. Slots are
  /// default-constructed up front; push moves into them, pop moves out.
  explicit SpscRing(size_t capacity)
      : capacity_(ring_capacity_for(capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full (the caller
  /// decides what backpressure means — the ingest path counts the
  /// packet as shed and forwards it best-effort, it never blocks the
  /// wire).
  bool try_push(T&& value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, single element.
  bool try_pop(T& out) { return pop_batch(&out, 1) == 1; }

  /// Consumer side, burst dequeue: moves up to `max` elements into
  /// `out`, returns how many. Batching amortizes the acquire load and
  /// the release store over the whole burst — the runtime's workers
  /// drain ~32 packets per wakeup for exactly this reason.
  size_t pop_batch(T* out, size_t max) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t available = tail_cache_ - head;
    if (available == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      available = tail_cache_ - head;
      if (available == 0) return 0;
    }
    const size_t n = available < max ? available : max;
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate (exact only when the opposite side is quiescent).
  size_t size() const {
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  const size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: tail index + cached view of head.
  alignas(kCacheLineSize) std::atomic<size_t> tail_{0};
  size_t head_cache_ = 0;
  // Consumer-owned line: head index + cached view of tail.
  alignas(kCacheLineSize) std::atomic<size_t> head_{0};
  size_t tail_cache_ = 0;
  // Pad so an adjacent allocation cannot share the consumer's line.
  char pad_[kCacheLineSize - sizeof(std::atomic<size_t>) - sizeof(size_t)];
};

}  // namespace nnn::runtime
