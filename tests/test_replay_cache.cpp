// Replay cache: use-once enforcement within the NCT horizon.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cookies/replay_cache.h"
#include "util/rng.h"

namespace nnn::cookies {
namespace {

crypto::Uuid uuid_from_seed(uint64_t seed) {
  util::Rng rng(seed);
  return crypto::Uuid::generate(rng);
}

TEST(ReplayCache, DetectsDuplicate) {
  ReplayCache cache(5 * util::kSecond);
  const auto u = uuid_from_seed(1);
  EXPECT_TRUE(cache.insert(u, 0));
  EXPECT_FALSE(cache.insert(u, 1 * util::kSecond));
  EXPECT_TRUE(cache.contains(u));
}

TEST(ReplayCache, ForgetsAfterHorizon) {
  ReplayCache cache(5 * util::kSecond);
  const auto u = uuid_from_seed(2);
  EXPECT_TRUE(cache.insert(u, 0));
  // Still remembered within the horizon...
  EXPECT_FALSE(cache.insert(u, 4 * util::kSecond));
  // ...but forgotten after it (the timestamp check rejects such
  // cookies anyway, so forgetting is safe and bounds memory).
  EXPECT_TRUE(cache.insert(u, 6 * util::kSecond));
}

TEST(ReplayCache, PurgeEvictsOnlyExpired) {
  ReplayCache cache(10 * util::kSecond);
  const auto a = uuid_from_seed(3);
  const auto b = uuid_from_seed(4);
  cache.insert(a, 0);
  cache.insert(b, 8 * util::kSecond);
  cache.purge(11 * util::kSecond);
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, SizeStaysBoundedUnderChurn) {
  ReplayCache cache(5 * util::kSecond);
  util::Rng rng(5);
  util::Timestamp now = 0;
  for (int i = 0; i < 50'000; ++i) {
    cache.insert(crypto::Uuid::generate(rng), now);
    now += util::kMillisecond;  // 1000 inserts per second
  }
  // Horizon holds ~5 seconds x 1000/s = ~5000 entries.
  EXPECT_LE(cache.size(), 5'100u);
  EXPECT_GE(cache.size(), 4'900u);
}

TEST(ReplayCache, CapacityClampsUuidFlood) {
  // A flood of unique uuids at one instant never ages out by horizon;
  // the explicit capacity bound is what stops unbounded growth.
  ReplayCache cache(5 * util::kSecond, /*capacity=*/100);
  EXPECT_EQ(cache.capacity(), 100u);
  util::Rng rng(7);
  std::vector<crypto::Uuid> uuids;
  for (int i = 0; i < 250; ++i) {
    uuids.push_back(crypto::Uuid::generate(rng));
    EXPECT_TRUE(cache.insert(uuids.back(), 0));
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.capacity_evictions(), 150u);
  // Oldest-first: the first 150 were evicted, the last 100 remain.
  EXPECT_FALSE(cache.contains(uuids.front()));
  EXPECT_TRUE(cache.contains(uuids.back()));
  EXPECT_TRUE(cache.contains(uuids[150]));
  EXPECT_FALSE(cache.contains(uuids[149]));
}

TEST(ReplayCache, EvictedUuidBecomesReplayableTradeoff) {
  // The documented trade-off: once the clamp evicts a uuid, a replay
  // of it is accepted again. Only reachable under a flood.
  ReplayCache cache(5 * util::kSecond, /*capacity=*/4);
  const auto victim = uuid_from_seed(8);
  EXPECT_TRUE(cache.insert(victim, 0));
  EXPECT_FALSE(cache.insert(victim, 0));  // normal replay rejection
  util::Rng rng(9);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(cache.insert(crypto::Uuid::generate(rng), 0));
  }
  EXPECT_FALSE(cache.contains(victim));
  EXPECT_TRUE(cache.insert(victim, 0));  // accepted again post-eviction
}

TEST(ReplayCache, DefaultCapacityIsGenerous) {
  ReplayCache cache(5 * util::kSecond);
  EXPECT_EQ(cache.capacity(), ReplayCache::kDefaultCapacity);
  EXPECT_EQ(cache.capacity_evictions(), 0u);
}

TEST(ReplayCache, ExpiredEntryReinsertableEvenWhenFull) {
  // purge-before-duplicate-check: an expired copy must not shadow the
  // fresh insert, and purging must run before the capacity clamp so
  // expiry (not eviction) reclaims the slot.
  ReplayCache cache(5 * util::kSecond, /*capacity=*/2);
  const auto a = uuid_from_seed(10);
  const auto b = uuid_from_seed(11);
  EXPECT_TRUE(cache.insert(a, 0));
  EXPECT_TRUE(cache.insert(b, 0));
  // Both expired by now; re-inserting `a` must succeed without any
  // capacity eviction being charged.
  EXPECT_TRUE(cache.insert(a, 6 * util::kSecond));
  EXPECT_EQ(cache.capacity_evictions(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, DistinctUuidsAllAccepted) {
  ReplayCache cache(5 * util::kSecond);
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(cache.insert(crypto::Uuid::generate(rng), 0));
  }
  EXPECT_EQ(cache.size(), 1000u);
}

/// The seed-era cache in miniature, made exact for any clock order:
/// every uuid is kept with its own expiry, purge drops each entry due
/// by `now`, and the capacity clamp evicts in insertion order. Under a
/// monotone clock insertion order is expiry order, so the wheel-based
/// cache must agree on every observable (insert verdicts, membership,
/// size, capacity evictions).
class ReferenceReplayCache {
 public:
  ReferenceReplayCache(util::Timestamp horizon, size_t capacity)
      : horizon_(horizon), capacity_(capacity) {}

  bool insert(const crypto::Uuid& uuid, util::Timestamp now) {
    purge(now);
    if (expiry_.contains(uuid)) return false;
    while (expiry_.size() >= capacity_) {
      // Oldest live insertion first; records of purged entries (or of
      // an earlier life of a re-inserted uuid) are skipped.
      const auto [oldest, expires] = order_.front();
      order_.pop_front();
      const auto it = expiry_.find(oldest);
      if (it != expiry_.end() && it->second == expires) {
        expiry_.erase(it);
        ++capacity_evictions_;
      }
    }
    expiry_.emplace(uuid, now + horizon_);
    order_.emplace_back(uuid, now + horizon_);
    return true;
  }
  bool contains(const crypto::Uuid& uuid) const {
    return expiry_.contains(uuid);
  }
  void purge(util::Timestamp now) {
    std::erase_if(expiry_,
                  [now](const auto& entry) { return entry.second <= now; });
  }
  size_t size() const { return expiry_.size(); }
  uint64_t capacity_evictions() const { return capacity_evictions_; }

 private:
  util::Timestamp horizon_;
  size_t capacity_;
  std::unordered_map<crypto::Uuid, util::Timestamp> expiry_;
  /// Insertion order with each record's expiry, for the capacity clamp.
  std::deque<std::pair<crypto::Uuid, util::Timestamp>> order_;
  uint64_t capacity_evictions_ = 0;
};

constexpr util::Timestamp kChurnHorizon = 5 * util::kSecond;
constexpr int kChurnOps = 30'000;

/// Random churn — fresh inserts, replays of recent uuids, explicit
/// purges — at the timestamps `next_now` draws, with the cache and the
/// reference compared after every operation.
template <typename NextNow>
void differential_churn(size_t capacity, uint64_t seed, NextNow next_now) {
  ReplayCache cache(kChurnHorizon, capacity);
  ReferenceReplayCache reference(kChurnHorizon, capacity);
  util::Rng rng(seed);
  std::vector<crypto::Uuid> recent;
  for (int op = 0; op < kChurnOps; ++op) {
    const util::Timestamp now = next_now(rng);
    const uint64_t kind = rng.next_u64(10);
    if (kind == 0) {
      cache.purge(now);
      reference.purge(now);
    } else if (kind <= 2 && !recent.empty()) {
      // Replay attempt on something seen recently.
      const auto& uuid = recent[rng.next_u64(recent.size())];
      ASSERT_EQ(cache.insert(uuid, now), reference.insert(uuid, now))
          << "op " << op;
    } else {
      const auto uuid = crypto::Uuid::generate(rng);
      recent.push_back(uuid);
      if (recent.size() > 512) recent.erase(recent.begin());
      ASSERT_EQ(cache.insert(uuid, now), reference.insert(uuid, now))
          << "op " << op;
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.capacity_evictions(), reference.capacity_evictions())
        << "op " << op;
  }
  for (const auto& uuid : recent) {
    ASSERT_EQ(cache.contains(uuid), reference.contains(uuid));
  }
}

TEST(ReplayCache, DifferentialAgainstReferenceUnderMonotoneChurn) {
  {
    // Monotone, bursty clock; a capacity of 300 makes the clamp evict.
    SCOPED_TRACE("monotone clock");
    util::Timestamp now = 0;
    differential_churn(300, 0xD1FF, [&now](util::Rng& rng) {
      now += static_cast<util::Timestamp>(rng.next_u64(40)) *
             util::kMillisecond;
      return now;
    });
  }
  {
    // Skewed clock, like kClockSkew: every reading jitters up to ±NCT
    // around a bursty monotone base, and one in 32 jumps 8 s ahead.
    // The wheel evicts for capacity in slot order, which differs from
    // insertion order once timestamps arrive out of order, so the
    // capacity sits above the operation count and expiry alone decides.
    SCOPED_TRACE("skewed clock");
    util::Timestamp base = 100 * util::kSecond;
    differential_churn(kChurnOps + 1, 0x5CE3, [&base](util::Rng& rng) {
      base += static_cast<util::Timestamp>(rng.next_u64(40)) *
              util::kMillisecond;
      if (rng.next_u64(32) == 0) return base + 8 * util::kSecond;
      const auto jitter = static_cast<util::Timestamp>(
          rng.next_u64(2 * kChurnHorizon + 1));
      return base + jitter - kChurnHorizon;
    });
  }
}

TEST(ReplayCache, WatermarkGatesPurgeScans) {
  // The seed implementation scanned on every insert; the watermark
  // must reduce that to one scan per actual expiry batch with zero
  // behavioral difference. 1000 inserts inside one horizon => no entry
  // is ever due during the window, so no scan may run at all.
  ReplayCache cache(5 * util::kSecond);
  util::Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    cache.insert(crypto::Uuid::generate(rng),
                 static_cast<util::Timestamp>(i) * util::kMillisecond);
  }
  EXPECT_EQ(cache.purge_scans(), 0u);
  EXPECT_EQ(cache.size(), 1000u);
  // Past the first expiry the next insert pays exactly one scan...
  cache.insert(crypto::Uuid::generate(rng), 6 * util::kSecond);
  EXPECT_EQ(cache.purge_scans(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // the whole window expired; only the new one
  // ...and the refreshed watermark gates again immediately after.
  cache.purge(6 * util::kSecond + util::kMillisecond);
  EXPECT_EQ(cache.purge_scans(), 1u);
}

TEST(ReplayCache, BackdatedInsertKeepsPurgeExact) {
  // Clock skew: an entry inserted with an earlier `now` than its
  // predecessor expires sooner than insertion order suggests. The
  // watermark must track the true minimum (min over inserts), so the
  // back-dated entry still purges on time. This is precisely where the
  // old prefix-scan cache silently kept expired entries.
  ReplayCache cache(5 * util::kSecond);
  const auto a = uuid_from_seed(30);
  const auto b = uuid_from_seed(31);
  cache.insert(a, 10 * util::kSecond);  // expires at 15s
  cache.insert(b, 2 * util::kSecond);   // back-dated: expires at 7s
  cache.purge(8 * util::kSecond);
  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, TelemetryAccessorsTrackState) {
  ReplayCache cache(5 * util::kSecond);
  util::Rng rng(33);
  for (int i = 0; i < 100; ++i) {
    cache.insert(crypto::Uuid::generate(rng), 0);
  }
  EXPECT_EQ(cache.wheel_slots(), ReplayCache::kWheelSlots);
  EXPECT_GE(cache.wheel_occupied_slots(), 1u);
  EXPECT_GT(cache.memory_bytes(), 100u * crypto::Uuid::kSize);
  const auto stats = cache.probe_stats(1024);
  EXPECT_GT(stats.samples, 0u);
  EXPECT_LE(stats.p99, 4u);
}

}  // namespace
}  // namespace nnn::cookies
