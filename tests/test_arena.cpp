// PacketArena + the shared steering hash (PR 8 zero-copy dataplane):
// freelist soundness, handle ownership, per-thread caches, fail-open
// exhaustion, and the fixed vectors that pin util::mix64 /
// util::steer_shard across platforms. The concurrent tests are TSan
// targets — they validate that the Treiber-stack publication edge
// (release push CAS -> acquire pop CAS) carries slot contents between
// threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "runtime/arena.h"
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
  EXPECT_EQ(PacketArena(5).capacity(), 5u);
  EXPECT_EQ(PacketArena(64).capacity(), 64u);
  EXPECT_EQ(PacketArena(33022).capacity(), 33022u);
  EXPECT_EQ(PacketArena(1).capacity(), 2u);
  EXPECT_EQ(PacketArena(0).capacity(), 2u);
  // Every slot is allocatable, and not one more.
  PacketArena arena(5);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 5; ++i) {
    held.push_back(arena.try_alloc());
    ASSERT_TRUE(held.back()) << i;
  }
  EXPECT_FALSE(arena.try_alloc());
  EXPECT_EQ(arena.alloc_failures(), 1u);
}

TEST(PacketArena, AllocExhaustReleaseRecycle) {
  PacketArena arena(4);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 4; ++i) {
    PacketHandle h = arena.try_alloc();
    ASSERT_TRUE(h);
    h->seq = static_cast<uint32_t>(100 + i);
    held.push_back(std::move(h));
  }
  EXPECT_EQ(arena.outstanding(), 4u);
  // Exhausted: fail-open, empty handle, counted — never a block.
  PacketHandle overflow = arena.try_alloc();
  EXPECT_FALSE(overflow);
  EXPECT_EQ(arena.alloc_failures(), 1u);
  // Release one; the next alloc succeeds and sees the recycled slot.
  const uint32_t released_slot = held.back().slot();
  held.pop_back();  // ~PacketHandle releases
  PacketHandle again = arena.try_alloc();
  ASSERT_TRUE(again);
  EXPECT_EQ(again.slot(), released_slot);  // LIFO freelist: warm slot first
  held.clear();
  again.reset();
  EXPECT_EQ(arena.outstanding(), 0u);
}

/// try_alloc() on an empty freelist calls the reclaim hook, then pops
/// what the hook put back; a freelist that holds a slot never calls it.
TEST(PacketArena, EmptyFreelistAsksTheReclaimHook) {
  PacketArena arena(2);
  std::vector<uint32_t> parked = {arena.try_alloc().detach(),
                                  arena.try_alloc().detach()};
  int calls = 0;
  arena.set_reclaim([&] {
    ++calls;
    if (!parked.empty()) {
      arena.release_raw(parked.back());
      parked.pop_back();
    }
  });
  PacketHandle a = arena.try_alloc();
  EXPECT_TRUE(a);
  EXPECT_EQ(calls, 1);
  PacketHandle b = arena.try_alloc();
  EXPECT_TRUE(b);
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(arena.try_alloc());  // the hook had nothing left
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(arena.alloc_failures(), 1u);
  a.reset();
  EXPECT_TRUE(arena.try_alloc());
  EXPECT_EQ(calls, 3);
}

TEST(PacketArena, HandleMoveTransfersOwnership) {
  PacketArena arena(2);
  PacketHandle a = arena.try_alloc();
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

TEST(PacketArena, DetachAdoptRoundTripThroughRawIndex) {
  PacketArena arena(2);
  PacketHandle h = arena.try_alloc();
  ASSERT_TRUE(h);
  h->seq = 77;
  const uint32_t raw = h.detach();  // e.g. pushed through a ring
  EXPECT_FALSE(h);
  EXPECT_EQ(arena.outstanding(), 1u);  // detach is not a release
  PacketHandle adopted = arena.adopt(raw);
  EXPECT_EQ(adopted->seq, 77u);
  adopted.reset();
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(PacketArena, ResetForReuseKeepsPayloadCapacity) {
  PacketArena arena(2);
  PacketHandle h = arena.try_alloc();
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

// --- Per-thread cache ----------------------------------------------

TEST(PacketArena, CacheAllocAndFlushBalanceTheBooks) {
  PacketArena arena(128);
  {
    PacketArena::Cache cache(arena);
    std::vector<PacketHandle> held;
    for (int i = 0; i < 100; ++i) {
      PacketHandle h = cache.alloc();
      ASSERT_TRUE(h);
      held.push_back(std::move(h));
    }
    // Cache refills pop in kChunk batches, so outstanding counts the
    // stash too — between 100 held and 100 + kChunk popped.
    EXPECT_GE(arena.outstanding(), 100u);
    held.clear();  // the handles go back to the freelist
    cache.flush();
    EXPECT_EQ(arena.outstanding(), 0u);
  }  // destructor flush on an empty stash: no-op
  EXPECT_EQ(arena.outstanding(), 0u);
}

/// A refill hands the stash slots the arena already counts as
/// allocated (emitted slots on a return ring): no freelist pop, and
/// alloc() hands them out last in, first out before it pops again.
TEST(PacketArena, CacheRefillHandsOutAllocatedSlotsWithoutAPop) {
  PacketArena arena(64);
  std::vector<uint32_t> returned;
  for (int i = 0; i < 3; ++i) returned.push_back(arena.try_alloc().detach());
  ASSERT_EQ(arena.total_allocs(), 3u);

  PacketArena::Cache cache(arena);
  EXPECT_TRUE(cache.empty());
  cache.refill([&](uint32_t* out, size_t max) {
    EXPECT_EQ(max, PacketArena::kChunk);
    std::copy(returned.begin(), returned.end(), out);
    return returned.size();
  });
  EXPECT_FALSE(cache.empty());
  std::vector<PacketHandle> held;
  for (size_t i = 0; i < returned.size(); ++i) {
    held.push_back(cache.alloc());
    EXPECT_EQ(held.back().slot(), returned[returned.size() - 1 - i]);
  }
  EXPECT_TRUE(cache.empty());
  EXPECT_EQ(arena.total_allocs(), 3u) << "a refill is not a pop";
  held.push_back(cache.alloc());  // empty stash: pops the freelist
  EXPECT_TRUE(held.back());
  EXPECT_EQ(arena.total_allocs(), 3u + PacketArena::kChunk);
  held.clear();
  cache.flush();
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(PacketArena, CacheExhaustionFailsOpenLikeDirectAlloc) {
  PacketArena arena(4);
  PacketArena::Cache cache(arena);
  std::vector<PacketHandle> held;
  for (int i = 0; i < 4; ++i) {
    PacketHandle h = cache.alloc();
    ASSERT_TRUE(h);
    held.push_back(std::move(h));
  }
  EXPECT_FALSE(cache.alloc());
  EXPECT_GE(arena.alloc_failures(), 1u);
  held.clear();
  cache.flush();
  EXPECT_EQ(arena.outstanding(), 0u);
}

// --- Concurrency (TSan targets) ------------------------------------

/// Many threads alloc, stamp, verify, release through the shared
/// freelist. The stamp check proves exclusive ownership (no slot is
/// ever handed to two threads at once), and the final outstanding()
/// proves nothing leaked. TSan checks the CAS publication protocol.
TEST(PacketArena, ConcurrentAllocReleaseExclusiveOwnership) {
  PacketArena arena(64);
  constexpr int kThreads = 4;
  constexpr int kRounds = 20'000;
  std::atomic<uint64_t> collisions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<PacketHandle> held;
      uint64_t salt = static_cast<uint64_t>(t) * 1000003;
      for (int i = 0; i < kRounds; ++i) {
        PacketHandle h = arena.try_alloc();
        if (h) {
          // Stamp with a thread-unique value; if another thread owned
          // this slot concurrently, the read-back would tear.
          const uint32_t stamp =
              static_cast<uint32_t>(salt + static_cast<uint64_t>(i));
          h->seq = stamp;
          h->wire_size = stamp ^ 0xffffffffu;
          if (h->seq != stamp || h->wire_size != (stamp ^ 0xffffffffu)) {
            collisions.fetch_add(1, std::memory_order_relaxed);
          }
          held.push_back(std::move(h));
        }
        if (held.size() > 8 || (!h && !held.empty())) {
          held.erase(held.begin());  // release oldest
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collisions.load(), 0u);
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_GT(arena.total_allocs(), 0u);
}

/// Same, through per-thread caches: each refill pops a chain that
/// other threads' releases pushed, and each flush splices one back.
TEST(PacketArena, ConcurrentCachesRecycleWithoutLeaks) {
  PacketArena arena(64);
  constexpr int kThreads = 4;
  constexpr int kRounds = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PacketArena::Cache cache(arena);
      for (int i = 0; i < kRounds; ++i) {
        PacketHandle h = cache.alloc();
        if (!h) continue;  // transient exhaustion: fail-open, move on
        h->seq = static_cast<uint32_t>(i);
      }  // the handle goes back to the freelist
    });  // Cache destructor flushes the stash
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arena.outstanding(), 0u);
}

}  // namespace
}  // namespace nnn::runtime
