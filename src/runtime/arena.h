// PacketArena: the fixed-slab packet mempool behind the zero-copy
// dataplane (§4.6 scale-out, ndn-dpdk mempool shape).
//
// The copy-through runtime moved whole net::Packet structs through the
// worker rings — ~200 bytes of struct plus vector moves per hop, twice
// (push + pop). The arena inverts that: packets are built in place in
// a pre-sized slab and only a 4-byte slot index travels through rings,
// so the payload bytes a workload generator (or net::wire decode)
// wrote at ingest are the very bytes the worker verifies and emits.
// Slabs are recycled with their heap capacity intact, so a warm arena
// allocates nothing on the steady-state path.
//
// Concurrency design:
//   - the freelist is a lock-free Treiber stack of slot indices with a
//     32-bit ABA tag packed beside the index in one 64-bit head;
//   - the successful pop is an acquire CAS and the push a release CAS,
//     which carries the happens-before edge for the slot's *contents*:
//     whatever the releasing thread wrote into the Packet is visible
//     to the slot's next owner;
//   - Cache gives the producer a private stash of slots, refilled a
//     chunk at a time: from a ring of slots that came back from their
//     last owner without passing through the freelist (the Dataplane's
//     per-worker return rings), else from the freelist; a flush splices
//     the whole stash back in a single CAS;
//   - slots on such a ring are not free, but they are no one's either:
//     try_alloc() on an empty freelist calls the owner's reclaim hook
//     (set_reclaim), which moves a chunk of them onto the freelist,
//     and pops again;
//   - Cache::alloc() prefetches for write the slot it will hand out
//     kPrefetchAhead allocations later, so the stores that build the
//     next packets find their lines already owned instead of waiting
//     to take them from the core that last read them;
//   - alloc/release counters are relaxed atomics: `outstanding()` is
//     exact whenever the arena is quiescent (the leak gate reads it
//     after Dataplane::stop()), approximate while threads run.
//
// Exhaustion is fail-open by construction: try_alloc returns an empty
// handle and the caller sheds (forwards the packet unverified); no
// path ever blocks waiting for a slot.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace nnn::runtime {

class PacketArena;

/// Move-only smart reference to one arena slot. Destruction returns
/// the slot to the arena's global freelist; detach()/adopt() move the
/// raw index through a ring without touching refcounts (there are
/// none — a slot has exactly one owner at a time).
class PacketHandle {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  PacketHandle() = default;
  PacketHandle(PacketHandle&& other) noexcept
      : arena_(other.arena_), slot_(other.slot_) {
    other.arena_ = nullptr;
    other.slot_ = kNil;
  }
  PacketHandle& operator=(PacketHandle&& other) noexcept {
    if (this != &other) {
      reset();
      arena_ = other.arena_;
      slot_ = other.slot_;
      other.arena_ = nullptr;
      other.slot_ = kNil;
    }
    return *this;
  }
  PacketHandle(const PacketHandle&) = delete;
  PacketHandle& operator=(const PacketHandle&) = delete;
  ~PacketHandle() { reset(); }

  explicit operator bool() const { return slot_ != kNil; }
  net::Packet& operator*() const;
  net::Packet* operator->() const;

  uint32_t slot() const { return slot_; }

  /// Give up ownership and return the raw slot index (for pushing into
  /// a ring). The caller-side handle becomes empty.
  uint32_t detach() {
    const uint32_t s = slot_;
    arena_ = nullptr;
    slot_ = kNil;
    return s;
  }

  /// Release the slot now (no-op on an empty handle).
  void reset();

 private:
  friend class PacketArena;
  PacketHandle(PacketArena* arena, uint32_t slot)
      : arena_(arena), slot_(slot) {}

  PacketArena* arena_ = nullptr;
  uint32_t slot_ = kNil;
};

class PacketArena {
 public:
  /// Cache stash size. A freelist refill pops one slot per CAS; a
  /// flush splices the whole chain back in one CAS.
  static constexpr size_t kChunk = 32;

  /// Exactly `slots` slots (minimum 2), all default-constructed up
  /// front.
  explicit PacketArena(size_t slots);
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// Pop a free slot; empty handle when exhausted (caller sheds —
  /// never blocks). The returned packet holds whatever state its last
  /// occupant left; callers overwrite every field they care about
  /// (reset_for_reuse() clears the cookie/flag fields while keeping
  /// payload capacity). An empty freelist first calls the reclaim
  /// hook, if one is set, and pops again.
  PacketHandle try_alloc();

  /// Return a slot to the freelist. Usually via ~PacketHandle.
  void release_raw(uint32_t slot);
  /// Return `n` slots to the freelist in one CAS.
  void release_batch(const uint32_t* slots, size_t n);

  /// What try_alloc() calls when it finds the freelist empty: a hook
  /// that may put slots its owner holds back on the freelist (the
  /// Dataplane's emitted slots on their way home). Called from any
  /// thread that calls try_alloc(). Set it before other threads use
  /// the arena.
  void set_reclaim(std::function<void()> reclaim) {
    reclaim_ = std::move(reclaim);
  }

  /// Re-own a raw index previously detach()ed into a ring.
  PacketHandle adopt(uint32_t slot) { return PacketHandle(this, slot); }

  net::Packet& at(uint32_t slot) { return slots_[slot]; }
  const net::Packet& at(uint32_t slot) const { return slots_[slot]; }

  size_t capacity() const { return slots_.size(); }

  /// allocs - releases. Exact at quiescence; the post-stop leak gate
  /// asserts it returns to zero.
  uint64_t outstanding() const {
    return allocs_.load(std::memory_order_acquire) -
           releases_.load(std::memory_order_acquire);
  }
  uint64_t total_allocs() const {
    return allocs_.load(std::memory_order_relaxed);
  }
  /// Allocations (try_alloc, Cache::alloc) that found the freelist
  /// empty (exhaustion sheds).
  uint64_t alloc_failures() const {
    return alloc_failures_.load(std::memory_order_relaxed);
  }

  /// The producer's private slot stash, at most kChunk slots. One
  /// thread owns a Cache; flush() (and the destructor) return what it
  /// holds to the freelist.
  class Cache {
   public:
    /// How many allocations ahead alloc() prefetches the slot it will
    /// hand out: its lines arrive while the packets before it are
    /// built.
    static constexpr size_t kPrefetchAhead = 3;

    explicit Cache(PacketArena& arena) : arena_(&arena) {}
    Cache(const Cache&) = delete;
    Cache& operator=(const Cache&) = delete;
    ~Cache() { flush(); }

    /// The next stashed slot. An empty stash first pops up to kChunk
    /// slots from the freelist; when that is empty too, the handle is
    /// empty and alloc_failures() counts it.
    PacketHandle alloc();
    bool empty() const { return count_ == 0; }
    /// Refill an empty stash with the up to kChunk slots that
    /// `pop(uint32_t* out, size_t max)` writes to `out` and counts in
    /// its return value. They must be slots the arena already counts
    /// as allocated, such as emitted slots coming back through a ring
    /// (whose acquire carries their contents, as the freelist pop
    /// would).
    template <typename Pop>
    void refill(Pop&& pop) {
      assert(empty() && "a refill would drop the stashed slots");
      count_ = pop(stash_.data(), kChunk);
    }
    /// Return every stashed slot to the freelist in one CAS.
    void flush();

   private:
    PacketArena* arena_;
    std::array<uint32_t, kChunk> stash_{};
    size_t count_ = 0;
  };

 private:
  friend class PacketHandle;

  /// Prefetch for write every cache line the slot's Packet covers (4
  /// or 5 lines of 224 B), so that the next stores into it find their
  /// lines owned. A hint: it reads and writes nothing.
  void prefetch_for_write(uint32_t slot) const;
  /// Pop up to `max` slots into `out`; returns the count.
  size_t pop_many(uint32_t* out, size_t max);
  /// Push a pre-linked chain [first..last] (linked through next_).
  void push_chain(uint32_t first, uint32_t last, uint64_t count);

  std::vector<net::Packet> slots_;
  std::function<void()> reclaim_;
  /// Freelist links, parallel to slots_. Only written while the slot
  /// is free (owned by the pusher pre-CAS), relaxed atomics to keep
  /// TSan precise about the publication edge living on head_.
  std::vector<std::atomic<uint32_t>> next_;
  /// tag(32) | index(32). Tag increments on every successful pop to
  /// defeat ABA.
  alignas(64) std::atomic<uint64_t> head_;
  alignas(64) std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> releases_{0};
  std::atomic<uint64_t> alloc_failures_{0};
};

/// Clear per-ingest fields (cookies, flags, sizes) while keeping the
/// payload's heap capacity — what generators and wire decode call on a
/// recycled slot before writing the next packet into it.
inline void reset_for_reuse(net::Packet& p) {
  p.dscp = 0;
  p.ttl = 64;
  p.ipv6 = false;
  p.seq = 0;
  p.ack_seq = 0;
  p.syn = p.ack = p.fin = p.rst = false;
  p.l3_cookie.reset();
  p.l4_cookie.reset();
  p.quic.reset();
  p.payload.clear();  // keeps capacity
  p.wire_size = 0;
}

inline net::Packet& PacketHandle::operator*() const {
  return arena_->at(slot_);
}
inline net::Packet* PacketHandle::operator->() const {
  return &arena_->at(slot_);
}
inline void PacketHandle::reset() {
  if (slot_ != kNil) {
    arena_->release_raw(slot_);
    arena_ = nullptr;
    slot_ = kNil;
  }
}

}  // namespace nnn::runtime
