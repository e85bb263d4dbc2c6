#include "runtime/arena.h"

#include <algorithm>

namespace nnn::runtime {

PacketArena::PacketArena(size_t slots)
    : slots_(std::max<size_t>(slots, 2)), next_(slots_.size()) {
  // Seed the freelist with every slot, linked 0 -> 1 -> ... -> n-1.
  const uint32_t n = static_cast<uint32_t>(slots_.size());
  for (uint32_t i = 0; i + 1 < n; ++i) {
    next_[i].store(i + 1, std::memory_order_relaxed);
  }
  next_[n - 1].store(PacketHandle::kNil, std::memory_order_relaxed);
  head_.store(0, std::memory_order_release);  // tag 0, index 0
}

PacketHandle PacketArena::try_alloc() {
  uint32_t slot = PacketHandle::kNil;
  size_t popped = pop_many(&slot, 1);
  if (popped == 0 && reclaim_) {
    reclaim_();
    popped = pop_many(&slot, 1);
  }
  if (popped == 0) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return PacketHandle{};
  }
  return PacketHandle(this, slot);
}

size_t PacketArena::pop_many(uint32_t* out, size_t max) {
  size_t n = 0;
  uint64_t head = head_.load(std::memory_order_acquire);
  while (n < max) {
    const uint32_t index = static_cast<uint32_t>(head);
    if (index == PacketHandle::kNil) break;
    // Safe to read even if another thread pops `index` first: slots
    // are never freed, and the CAS below fails in that case.
    const uint32_t next = next_[index].load(std::memory_order_relaxed);
    const uint64_t tag = (head >> 32) + 1;
    const uint64_t replacement = (tag << 32) | next;
    if (head_.compare_exchange_weak(head, replacement,
                                    std::memory_order_acquire,
                                    std::memory_order_acquire)) {
      out[n++] = index;
      head = replacement;
    }
    // On failure `head` was reloaded by the CAS.
  }
  if (n > 0) allocs_.fetch_add(n, std::memory_order_release);
  return n;
}

void PacketArena::release_raw(uint32_t slot) {
  push_chain(slot, slot, 1);
}

void PacketArena::release_batch(const uint32_t* slots, size_t n) {
  if (n == 0) return;
  for (size_t i = 0; i + 1 < n; ++i) {
    next_[slots[i]].store(slots[i + 1], std::memory_order_relaxed);
  }
  push_chain(slots[0], slots[n - 1], n);
}

void PacketArena::push_chain(uint32_t first, uint32_t last,
                             uint64_t count) {
  uint64_t head = head_.load(std::memory_order_relaxed);
  for (;;) {
    next_[last].store(static_cast<uint32_t>(head),
                      std::memory_order_relaxed);
    const uint64_t tag = (head >> 32) + 1;
    const uint64_t replacement = (tag << 32) | first;
    if (head_.compare_exchange_weak(head, replacement,
                                    std::memory_order_release,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  releases_.fetch_add(count, std::memory_order_release);
}

void PacketArena::prefetch_for_write(uint32_t slot) const {
  constexpr uintptr_t kLine = 64;
  const char* first = reinterpret_cast<const char*>(&slots_[slot]);
  // prefetchw through asm, as state::prefetch_line does for prefetcht0:
  // without -mprfchw, g++ turns __builtin_prefetch(p, 1) into
  // prefetcht0, which leaves the line shared, so the store still waits.
  const auto own = [](const char* p) {
#if defined(__x86_64__) || defined(__i386__)
    asm volatile("prefetchw %0" ::"m"(*p));
#else
    __builtin_prefetch(p, 1);
#endif
  };
  // The slot's first byte, then the start of every further line it
  // covers; no address past its last byte.
  own(first);
  for (size_t offset = kLine - reinterpret_cast<uintptr_t>(first) % kLine;
       offset < sizeof(net::Packet); offset += kLine) {
    own(first + offset);
  }
}

PacketHandle PacketArena::Cache::alloc() {
  if (count_ == 0) {
    count_ = arena_->pop_many(stash_.data(), kChunk);
    if (count_ == 0) {
      arena_->alloc_failures_.fetch_add(1, std::memory_order_relaxed);
      return PacketHandle{};
    }
  }
  const uint32_t slot = stash_[--count_];
  if (count_ >= kPrefetchAhead) {
    arena_->prefetch_for_write(stash_[count_ - kPrefetchAhead]);
  }
  return PacketHandle(arena_, slot);
}

void PacketArena::Cache::flush() {
  arena_->release_batch(stash_.data(), count_);
  count_ = 0;
}

}  // namespace nnn::runtime
