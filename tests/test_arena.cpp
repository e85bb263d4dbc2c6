// PacketArena + the shared steering hash (PR 8 zero-copy dataplane):
// the slot loop's accounting, handle ownership, fail-open exhaustion,
// and the fixed vectors that pin util::mix64 / util::steer_shard
// across platforms. The two-thread test is a TSan target: it checks
// that the rings carry slot contents to a worker and back home.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/arena.h"
#include "runtime/spsc_ring.h"
#include "util/hash.h"

namespace nnn::runtime {
namespace {

// --- Steering hash fixed vectors -----------------------------------

/// The splitmix64 finalizer, pinned. FlatTable seed mixing and the RX
/// demux steer through the same function, so these vectors guarantee
/// cross-platform-stable shard assignment (a cookie id lands on the
/// same worker on every build — §4.6 descriptor affinity must not
/// depend on the host).
TEST(SteeringHash, Mix64FixedVectors) {
  EXPECT_EQ(util::mix64(0u), 0u);
  EXPECT_EQ(util::mix64(1u), 0x5692161d100b05e5ull);
  EXPECT_EQ(util::mix64(2u), 0xdbd238973a2b148aull);
  EXPECT_EQ(util::mix64(0xdeadbeefull), 0x4e062702ec929eeaull);
  EXPECT_EQ(util::mix64(0x123456789abcdef0ull), 0x9629f58e8ec5b906ull);
  EXPECT_EQ(util::mix64(~0ull), 0xb4d055fcf2cbbd7bull);
}

TEST(SteeringHash, SteerShardFixedVectors) {
  // Derived from the vectors above; any change to these is a
  // rebalancing event for deployed descriptor->worker pinning.
  EXPECT_EQ(util::steer_shard(1, 2), 1u);
  EXPECT_EQ(util::steer_shard(1, 8), 5u);
  EXPECT_EQ(util::steer_shard(2, 4), 2u);
  EXPECT_EQ(util::steer_shard(3, 8), 0u);
  EXPECT_EQ(util::steer_shard(4, 8), 4u);
  // Degenerate shard counts collapse to 0 instead of dividing by zero.
  EXPECT_EQ(util::steer_shard(99, 1), 0u);
  EXPECT_EQ(util::steer_shard(99, 0), 0u);
}

/// Sequential cookie ids (the control plane hands them out that way)
/// must spread, not stripe — the reason steer_shard exists at all.
TEST(SteeringHash, SequentialIdsBalanceAcrossShards) {
  constexpr size_t kShards = 8;
  constexpr uint64_t kIds = 10'000;
  std::vector<size_t> load(kShards, 0);
  for (uint64_t id = 1; id <= kIds; ++id) {
    ++load[util::steer_shard(id, kShards)];
  }
  const size_t expect = kIds / kShards;
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(load[s], expect / 2) << "shard " << s << " starved";
    EXPECT_LT(load[s], expect * 2) << "shard " << s << " overloaded";
  }
}

// --- Arena basics ---------------------------------------------------

TEST(PacketArena, CapacityIsExactlyTheSlotsAsked) {
  // No rounding up: Dataplane asks for the bound on outstanding slots,
  // and every slot beyond it would be a 224-byte Packet never used.
  EXPECT_EQ(PacketArena(5, 1).capacity(), 5u);
  EXPECT_EQ(PacketArena(64, 1).capacity(), 64u);
  EXPECT_EQ(PacketArena(33022, 1).capacity(), 33022u);
  EXPECT_EQ(PacketArena(1, 1).capacity(), 2u);
  EXPECT_EQ(PacketArena(0, 1).capacity(), 2u);
  // Every slot is allocatable, and not one more.
  PacketArena arena(5, 1);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(arena.alloc());
    ASSERT_TRUE(held.back()) << i;
  }
  EXPECT_FALSE(arena.alloc());
  EXPECT_EQ(arena.alloc_failures(), 1u);
}

TEST(PacketArena, AllocExhaustReleaseRecycle) {
  PacketArena arena(4, 1);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 4; ++i) {
    PacketHandle h = arena.alloc();
    ASSERT_TRUE(h);
    h->seq = static_cast<uint32_t>(100 + i);
    held.push_back(std::move(h));
  }
  EXPECT_EQ(arena.outstanding(), 4u);
  // Exhausted: fail-open, empty handle, counted — never a block.
  PacketHandle overflow = arena.alloc();
  EXPECT_FALSE(overflow);
  EXPECT_EQ(arena.alloc_failures(), 1u);
  // Release one; the next alloc succeeds and sees the recycled slot.
  const uint32_t released_slot = held.back().slot();
  held.pop_back();  // ~PacketHandle drops it onto the spare stack
  PacketHandle again = arena.alloc();
  ASSERT_TRUE(again);
  EXPECT_EQ(again.slot(), released_slot);  // LIFO spare stack: warm first
  held.clear();
  again.reset();
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(PacketArena, HandleMoveTransfersOwnership) {
  PacketArena arena(2, 1);
  PacketHandle a = arena.alloc();
  ASSERT_TRUE(a);
  const uint32_t slot = a.slot();
  PacketHandle b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  ASSERT_TRUE(b);
  EXPECT_EQ(b.slot(), slot);
  PacketHandle c;
  c = std::move(b);
  ASSERT_TRUE(c);
  EXPECT_EQ(arena.outstanding(), 1u);
  c.reset();
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_FALSE(c);
  c.reset();  // double reset is a no-op
  EXPECT_EQ(arena.outstanding(), 0u);
}

/// A detached slot is out until it is sent home on a return ring; an
/// empty stash then takes it from the ring, contents intact, before it
/// touches the spare stack.
TEST(PacketArena, DetachedSlotComesHomeOnItsReturnRing) {
  PacketArena arena(40, 2);
  PacketHandle h = arena.alloc();  // the stash takes a chunk of 32
  ASSERT_TRUE(h);
  ASSERT_EQ(arena.spare_takes(), PacketArena::kChunk);
  h->seq = 77;
  const uint32_t raw = h.detach();  // e.g. pushed through a ring
  EXPECT_FALSE(h);
  EXPECT_EQ(arena.outstanding(), 1u);  // detach is not a drop
  arena.send_home(1, raw);
  EXPECT_EQ(arena.outstanding(), 0u);  // a returned slot is home
  std::vector<PacketHandle> held;
  for (size_t i = 1; i < PacketArena::kChunk; ++i) {
    held.push_back(arena.alloc());  // the rest of the stash
  }
  PacketHandle back = arena.alloc();
  ASSERT_TRUE(back);
  EXPECT_EQ(back.slot(), raw);
  EXPECT_EQ(back->seq, 77u);
  EXPECT_EQ(arena.spare_takes(), PacketArena::kChunk)
      << "the stash took from the spare stack with a slot on a ring";
  held.clear();
  back.reset();
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(PacketArena, ResetForReuseKeepsPayloadCapacity) {
  PacketArena arena(2, 1);
  PacketHandle h = arena.alloc();
  ASSERT_TRUE(h);
  h->payload.assign(1024, 0xab);
  h->l4_cookie = util::Bytes{1, 2, 3};
  h->dscp = 46;
  h->syn = true;
  const size_t cap = h->payload.capacity();
  reset_for_reuse(*h);
  EXPECT_TRUE(h->payload.empty());
  EXPECT_GE(h->payload.capacity(), cap);  // heap buffer survives
  EXPECT_FALSE(h->l4_cookie.has_value());
  EXPECT_EQ(h->dscp, 0);
  EXPECT_FALSE(h->syn);
}

// --- The loop across two threads (TSan target) ----------------------

/// The producer allocates each slot, stamps it and hands its index to
/// a worker thread through a ring; the worker checks the stamp, marks
/// the slot and sends it home on its return ring, and the producer
/// checks the mark when the slot comes back. A slot owned by both
/// threads at once would tear a stamp or a mark (and TSan would see
/// the race); a slot that never came home would run the arena dry.
TEST(PacketArena, StampedSlotsCrossToAWorkerAndComeHome) {
  constexpr uint32_t kPackets = 200'000;
  constexpr uint32_t kMask = 0x5a5a5a5a;
  PacketArena arena(64, 1);
  SpscRing<uint32_t> ring(16);
  uint64_t worker_torn = 0;
  std::thread worker([&] {
    uint32_t slot = PacketHandle::kNil;
    for (uint32_t seen = 0; seen < kPackets;) {
      if (!ring.try_pop(slot)) {
        std::this_thread::yield();
        continue;
      }
      net::Packet& p = arena.at(slot);
      if (p.wire_size != (p.seq ^ kMask)) ++worker_torn;
      p.wire_size = p.seq;  // the worker's mark
      arena.send_home(0, slot);
      ++seen;
    }
  });
  uint64_t producer_torn = 0;
  for (uint32_t i = 0; i < kPackets;) {
    PacketHandle h = arena.alloc();
    if (!h) {
      std::this_thread::yield();
      continue;
    }
    // A never-used slot reads 0 and 0; a returned one, the mark.
    if (h->wire_size != h->seq) ++producer_torn;
    h->seq = i;
    h->wire_size = i ^ kMask;
    const uint32_t slot = h.detach();
    while (!ring.try_push(uint32_t{slot})) std::this_thread::yield();
    ++i;
  }
  worker.join();
  EXPECT_EQ(worker_torn, 0u);
  EXPECT_EQ(producer_torn, 0u);
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_LE(arena.spare_takes(), arena.capacity())
      << "a slot the worker sent home went through the spare stack";
}

}  // namespace
}  // namespace nnn::runtime
