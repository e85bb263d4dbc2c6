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
  uint32_t slot;
  if (pop_many(&slot, 1) == 0) {
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

PacketHandle PacketArena::Cache::alloc() {
  if (stash_.empty()) {
    stash_.resize(PacketArena::kChunk);
    const size_t n = arena_->pop_many(stash_.data(), PacketArena::kChunk);
    stash_.resize(n);
    if (n == 0) {
      arena_->alloc_failures_.fetch_add(1, std::memory_order_relaxed);
      return PacketHandle{};
    }
  }
  const uint32_t slot = stash_.back();
  stash_.pop_back();
  return PacketHandle(arena_, slot);
}

void PacketArena::Cache::release(PacketHandle&& handle) {
  if (!handle) return;
  release_raw(handle.detach());
}

void PacketArena::Cache::release_raw(uint32_t slot) {
  stash_.push_back(slot);
  if (stash_.size() >= 2 * PacketArena::kChunk) {
    // Splice the overflow half back in one CAS, keep a burst warm.
    const size_t keep = PacketArena::kChunk;
    const size_t give = stash_.size() - keep;
    for (size_t i = keep; i + 1 < stash_.size(); ++i) {
      arena_->next_[stash_[i]].store(stash_[i + 1],
                                     std::memory_order_relaxed);
    }
    arena_->push_chain(stash_[keep], stash_.back(), give);
    stash_.resize(keep);
  }
}

void PacketArena::Cache::flush() {
  if (stash_.empty()) return;
  for (size_t i = 0; i + 1 < stash_.size(); ++i) {
    arena_->next_[stash_[i]].store(stash_[i + 1],
                                   std::memory_order_relaxed);
  }
  arena_->push_chain(stash_.front(), stash_.back(), stash_.size());
  stash_.clear();
}

}  // namespace nnn::runtime
