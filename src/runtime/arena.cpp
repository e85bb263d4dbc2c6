#include "runtime/arena.h"

#include <algorithm>

namespace nnn::runtime {

PacketArena::PacketArena(size_t slots, size_t return_rings)
    : slots_(std::max<size_t>(slots, 2)) {
  const size_t n = slots_.size();
  for (size_t r = 0; r < std::max<size_t>(return_rings, 1); ++r) {
    returns_.push_back(std::make_unique<SpscRing<uint32_t>>(n));
  }
  // Slot 0 on top: the first allocations walk the slab in order.
  spare_.reserve(n);
  for (size_t i = n; i-- > 0;) spare_.push_back(static_cast<uint32_t>(i));
}

PacketHandle PacketArena::alloc() {
  if (stashed_ == 0 && (stashed_ = refill()) == 0) {
    ++alloc_failures_;
    return PacketHandle{};
  }
  const uint32_t slot = stash_[--stashed_];
  if (stashed_ >= kPrefetchAhead) {
    prefetch_for_write(stash_[stashed_ - kPrefetchAhead]);
  }
  return PacketHandle(this, slot);
}

size_t PacketArena::refill() {
  for (size_t tried = 0; tried < returns_.size(); ++tried) {
    SpscRing<uint32_t>& ring = *returns_[next_return_];
    next_return_ = (next_return_ + 1) % returns_.size();
    if (const size_t n = ring.pop_batch(stash_.data(), kChunk)) return n;
  }
  // Top of the stack last into the stash, so it is handed out first:
  // the slot dropped last is the warmest.
  const size_t n = std::min(kChunk, spare_.size());
  std::copy(spare_.end() - static_cast<ptrdiff_t>(n), spare_.end(),
            stash_.begin());
  spare_.resize(spare_.size() - n);
  spare_takes_ += n;
  return n;
}

uint64_t PacketArena::outstanding() const {
  size_t home = stashed_ + spare_.size();
  for (const auto& ring : returns_) home += ring->size();
  return capacity() - home;
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

}  // namespace nnn::runtime
