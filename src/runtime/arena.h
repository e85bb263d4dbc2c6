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
// A slot travels one loop, as a DPDK mbuf goes from its pool to one
// core and back: the producer allocates it and builds a packet in it,
// a ring carries its index to a worker, and the worker sends it home
// on its own SPSC return ring when it emits the packet. A slot is home
// in one of three places:
//   - the stash, the up to kChunk slots alloc() hands out next;
//   - a return ring. There is one per worker, each able to hold every
//     slot, so a push never fails. An empty stash takes a chunk from
//     the next ring that holds any, round robin; the ring's
//     release/acquire pair carries the slot's contents from the
//     worker that last wrote them;
//   - the spare stack, which holds never-used slots and the slots of
//     dropped handles. An empty stash takes from it only when every
//     return ring is empty.
// SpscRing is the only structure a slot crosses threads through: the
// arena holds no lock and makes no CAS.
//
// alloc() also prefetches for write the slot it will hand out
// kPrefetchAhead allocations later, so the stores that build the next
// packets find their lines already owned instead of waiting to take
// them from the core that last read them.
//
// Threading: alloc(), every PacketHandle (moving, building in,
// dropping) and the counters belong to ONE producer thread, which owns
// the stash and the spare stack and pops the return rings. Return ring
// r is pushed by one thread at a time through send_home(r, ...): its
// worker, or Dataplane::stop() once it has joined that worker. The
// producer role may pass to another thread across a synchronizing
// step, such as a thread join.
//
// Exhaustion is fail-open by construction: alloc() returns an empty
// handle and the caller sheds (forwards the packet unverified); no
// path ever blocks waiting for a slot.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "runtime/spsc_ring.h"

namespace nnn::runtime {

class PacketArena;

/// Move-only smart reference to one arena slot. Destruction drops the
/// slot onto the arena's spare stack; detach() gives up the raw index
/// to push through a ring. Producer thread only (see arena.h). No
/// refcounts: a slot has exactly one owner at a time.
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

  /// Drop the slot now (no-op on an empty handle).
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
  /// Slots an empty stash takes at once, from one return ring or from
  /// the spare stack.
  static constexpr size_t kChunk = 32;
  /// How many allocations ahead alloc() prefetches the slot it will
  /// hand out: its lines arrive while the packets before it are built.
  static constexpr size_t kPrefetchAhead = 3;

  /// Exactly `slots` slots (minimum 2), all default-constructed on the
  /// spare stack, and `return_rings` return rings (minimum 1).
  PacketArena(size_t slots, size_t return_rings);
  PacketArena(const PacketArena&) = delete;
  PacketArena& operator=(const PacketArena&) = delete;

  /// The next stashed slot. An empty stash first takes a chunk from the
  /// next return ring that holds any, else from the spare stack; when
  /// all are empty the handle is empty (the caller sheds, never
  /// blocks) and alloc_failures() counts it. The packet holds whatever
  /// its last occupant left; callers overwrite every field they care
  /// about (reset_for_reuse() clears the cookie/flag fields while
  /// keeping payload capacity). Producer thread only.
  PacketHandle alloc();

  /// Send `slot` home on return ring `ring`; the ring's release store
  /// publishes what the caller wrote into the slot. Only the ring's
  /// one pusher at a time may call it (see arena.h).
  void send_home(size_t ring, uint32_t slot) {
    const bool pushed = returns_[ring]->try_push(uint32_t{slot});
    assert(pushed && "a return ring holds every slot");
    (void)pushed;
  }

  net::Packet& at(uint32_t slot) { return slots_[slot]; }
  const net::Packet& at(uint32_t slot) const { return slots_[slot]; }

  size_t capacity() const { return slots_.size(); }

  /// Slots not at home: capacity minus the stash, the spare stack and
  /// the return rings. Producer thread. 0 after Dataplane::drain() or
  /// stop() when the caller holds no handle; the post-stop leak gate
  /// asserts it.
  uint64_t outstanding() const;
  /// Slots the stash took from the spare stack: first uses and dropped
  /// handles' slots. Every other allocation reuses a slot that a worker
  /// sent home.
  uint64_t spare_takes() const { return spare_takes_; }
  /// Allocations that found the stash, every return ring and the spare
  /// stack empty (exhaustion sheds).
  uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  friend class PacketHandle;

  /// A dropped handle's slot goes onto the spare stack, which holds
  /// every slot without growing.
  void drop(uint32_t slot) {
    assert(spare_.size() < capacity() && "a slot dropped twice");
    spare_.push_back(slot);
  }
  /// Fill the empty stash from the next non-empty return ring, else
  /// from the spare stack; returns how many slots it holds now.
  size_t refill();
  /// Prefetch for write every cache line the slot's Packet covers (4
  /// or 5 lines of 224 B), so that the next stores into it find their
  /// lines owned. A hint: it reads and writes nothing.
  void prefetch_for_write(uint32_t slot) const;

  // What the workers read: the slab and the return rings.
  std::vector<net::Packet> slots_;
  std::vector<std::unique_ptr<SpscRing<uint32_t>>> returns_;
  // The producer's state, on lines of its own.
  alignas(kCacheLineSize) std::array<uint32_t, kChunk> stash_{};
  size_t stashed_ = 0;
  /// The return ring the next refill tries first.
  size_t next_return_ = 0;
  std::vector<uint32_t> spare_;
  uint64_t spare_takes_ = 0;
  uint64_t alloc_failures_ = 0;
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
    arena_->drop(slot_);
    arena_ = nullptr;
    slot_ = kNil;
  }
}

}  // namespace nnn::runtime
