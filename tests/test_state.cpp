// State layer: flat open-addressing tables, hashed expiry wheel, the
// compact descriptor store, and hot/cold midstate tiering.
//
// The flat-table tests are differential against std::unordered_map —
// the structure it replaced — over randomized op streams, so any
// probe/tombstone/rehash bug shows up as a divergence rather than
// needing a hand-written oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cookies/descriptor_store.h"
#include "cookies/hot_tier.h"
#include "state/expiry_wheel.h"
#include "state/flat_table.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn {
namespace {

using util::kSecond;

// --- FlatTable / FlatMap -------------------------------------------

TEST(FlatTable, DifferentialAgainstUnorderedMapUnderRandomOps) {
  state::FlatMap<uint64_t, uint64_t> flat;
  std::unordered_map<uint64_t, uint64_t> ref;
  util::Rng rng(0xF1A7);
  // Small key space so inserts, replacements, erases and re-inserts of
  // recently erased keys (tombstone reuse) all happen constantly.
  constexpr uint64_t kKeySpace = 4096;
  for (int op = 0; op < 200'000; ++op) {
    const uint64_t key = rng.next_u64(kKeySpace);
    switch (rng.next_u64(4)) {
      case 0:
      case 1: {  // insert or overwrite
        const uint64_t value = rng.next_u64();
        flat.try_emplace(key).first->value = value;
        ref[key] = value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // find
        const uint64_t* found = flat.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content check via iteration, both directions.
  size_t visited = 0;
  flat.for_each([&](const auto& item) {
    ++visited;
    const auto it = ref.find(item.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(item.value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatTable, SequentialIdsStayShortProbed) {
  // libstdc++ std::hash<uint64_t> is the identity; without the
  // splitmix64 finalizer, sequential cookie ids would aim 128
  // consecutive hashes at each 16-slot group and probing would
  // explode. This is the regression test for state::mix_hash.
  state::FlatMap<uint64_t, uint64_t> flat;
  constexpr uint64_t kN = 200'000;
  for (uint64_t id = 0; id < kN; ++id) flat.try_emplace(id).first->value = id;
  for (uint64_t id = 0; id < kN; ++id) {
    const uint64_t* v = flat.find(id);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, id);
  }
  const state::ProbeStats stats = flat.probe_stats(4096);
  EXPECT_GT(stats.samples, 0u);
  // With mix_hash and 7/8 max load, nearly every lookup terminates in
  // its first group; allow a little slack for unlucky clusters.
  EXPECT_LE(stats.p99, 3u);
}

TEST(FlatTable, EraseIfDropsExactlyMatchingEntries) {
  state::FlatMap<uint64_t, uint64_t> flat;
  for (uint64_t k = 0; k < 1000; ++k) flat.try_emplace(k).first->value = k;
  const size_t dropped =
      flat.erase_if([](const auto& item) { return item.key % 2 == 1; });
  EXPECT_EQ(dropped, 500u);
  EXPECT_EQ(flat.size(), 500u);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(flat.find(k) != nullptr, k % 2 == 0) << k;
  }
}

TEST(FlatTable, ChurnDoesNotAccumulateTombstonesOrMemory) {
  // Insert/erase churn with a small live set: tombstone pressure must
  // trigger same-size purges, not unbounded growth.
  state::FlatMap<uint64_t, uint64_t> flat;
  constexpr uint64_t kWindow = 1024;
  for (uint64_t i = 0; i < 200'000; ++i) {
    flat.try_emplace(i).first->value = i;
    if (i >= kWindow) flat.erase(i - kWindow);
  }
  EXPECT_EQ(flat.size(), kWindow);
  // 1024 live entries at 7/8 load fit in 2048 slots; a few powers of
  // two of headroom is fine, unbounded drift is not.
  EXPECT_LE(flat.memory_bytes(),
            16u * kWindow * (sizeof(state::FlatMap<uint64_t, uint64_t>::Item) +
                             1));
}

TEST(FlatTable, ChurnAtHighLiveLoadGrowsInsteadOfRehashingInPlace) {
  // Sliding-window churn at ~86% live load. Every erase can leave a
  // tombstone, and a same-size rehash clears only the room between 86%
  // and the 7/8 maximum, so at that size the table moves every element
  // every few hundred operations. Growing once instead keeps element
  // moves (counted through elem_hash) under one per operation.
  state::FlatTable<uint64_t> table;
  uint64_t moves = 0;
  const auto hash = [](uint64_t key) { return state::mix_hash(key); };
  const auto insert = [&](uint64_t key) {
    table.find_or_insert(
        hash(key), [key](const uint64_t& k) { return k == key; },
        [&](const uint64_t& k) {
          ++moves;
          return hash(k);
        },
        [key] { return key; });
  };
  constexpr uint64_t kLive = 14'090;  // 86% of 16,384 slots
  for (uint64_t k = 0; k < kLive; ++k) insert(k);
  ASSERT_EQ(table.slot_count(), 16'384u);
  moves = 0;
  constexpr uint64_t kOps = 100'000;
  for (uint64_t i = 0; i < kOps; ++i) {
    insert(kLive + i);
    ASSERT_TRUE(
        table.erase(hash(i), [i](const uint64_t& k) { return k == i; }));
  }
  EXPECT_EQ(table.size(), kLive);
  EXPECT_LT(moves, kOps);
}

// --- ExpiryWheel ----------------------------------------------------

struct WheelHarness {
  struct Entry {
    util::Timestamp expires = 0;
    uint32_t next = state::ExpiryWheel::kNil;
  };
  std::vector<Entry> entries;
  std::vector<uint32_t> fired;
  size_t expiry_reads = 0;  // expiry_of calls, i.e. entries visited
  state::ExpiryWheel wheel;

  explicit WheelHarness(util::Timestamp tick, size_t slots,
                        util::Timestamp start = 0) {
    wheel.init(tick, slots, start);
  }
  auto next_ref() {
    return [this](uint32_t h) -> uint32_t& { return entries[h].next; };
  }
  uint32_t schedule(util::Timestamp expires) {
    const uint32_t h = static_cast<uint32_t>(entries.size());
    entries.push_back(Entry{expires, state::ExpiryWheel::kNil});
    wheel.schedule(h, expires, next_ref());
    return h;
  }
  state::ExpiryWheel::AdvanceResult advance(util::Timestamp now) {
    return wheel.advance(
        now, next_ref(),
        [this](uint32_t h) {
          ++expiry_reads;
          return entries[h].expires;
        },
        [this](uint32_t h) { fired.push_back(h); });
  }
  /// Earliest expiry among the entries not fired yet.
  util::Timestamp min_unfired() const {
    util::Timestamp min = state::ExpiryWheel::kNever;
    for (uint32_t h = 0; h < entries.size(); ++h) {
      if (std::find(fired.begin(), fired.end(), h) == fired.end()) {
        min = std::min(min, entries[h].expires);
      }
    }
    return min;
  }
};

TEST(ExpiryWheel, FiresEntryDueExactlyAtHorizon) {
  WheelHarness w(/*tick=*/kSecond, /*slots=*/64);
  const util::Timestamp due = 5 * kSecond;
  w.schedule(due);
  auto result = w.advance(due - 1);
  EXPECT_EQ(result.fired, 0u);
  EXPECT_EQ(w.wheel.size(), 1u);
  // The bound must never overshoot the real minimum.
  EXPECT_LE(result.next_due_bound, due);
  result = w.advance(due);  // expiry <= now: fires exactly at the boundary
  EXPECT_EQ(result.fired, 1u);
  EXPECT_EQ(w.wheel.size(), 0u);
  EXPECT_EQ(result.next_due_bound, state::ExpiryWheel::kNever);
}

TEST(ExpiryWheel, BackdatedEntryClampsToCursorAndFiresNext) {
  WheelHarness w(kSecond, 64, /*start=*/100 * kSecond);
  // Clock skew handed us an already-expired entry; it must clamp into
  // the current slot and fire on the next advance, not be lost to an
  // already-passed slot.
  w.schedule(7 * kSecond);
  const auto result = w.advance(100 * kSecond);
  EXPECT_EQ(result.fired, 1u);
}

TEST(ExpiryWheel, SkewedAppendOrderStaysExact) {
  WheelHarness w(/*tick=*/16 * kSecond, /*slots=*/64);
  // Three entries land in the same slot out of expiry order (a skewed
  // clock): the slot loses its sorted flag and must fall back to the
  // full walk, firing exactly the due subset.
  const uint32_t late = w.schedule(15 * kSecond);
  const uint32_t early = w.schedule(2 * kSecond);
  const uint32_t mid = w.schedule(9 * kSecond);
  const auto result = w.advance(9 * kSecond);
  EXPECT_EQ(result.fired, 2u);
  EXPECT_EQ(w.fired, (std::vector<uint32_t>{early, mid}));
  // The survivor's exact expiry is the bound (current-slot precision).
  EXPECT_EQ(result.next_due_bound, w.entries[late].expires);
}

TEST(ExpiryWheel, AheadDatedAppendsCostOneWalkPerSlot) {
  // ReplayCache's shape: an entry every 10 us, filed a horizon ahead,
  // and every 50th dated up to one more horizon ahead (a cookie stamped
  // ahead of the verifier's clock), which leaves nearly every slot
  // appended out of order. Advances are gated on the returned bound,
  // as ReplayCache's watermark gates them. Walking an unsorted current
  // slot on every advance visits ~30 entries per insert here; sorting
  // it once keeps the visits near 3 per insert.
  constexpr util::Timestamp kTick = 1000;
  constexpr util::Timestamp kHorizon = 32 * kTick;
  constexpr int kInserts = 20000;
  WheelHarness w(kTick, 256);
  util::Timestamp watermark = state::ExpiryWheel::kNever;
  util::Timestamp now = 0;
  for (int i = 0; i < kInserts; ++i) {
    now = i * 10;
    if (now >= watermark) {
      const size_t before = w.fired.size();
      watermark = w.advance(now).next_due_bound;
      for (size_t k = before; k < w.fired.size(); ++k) {
        ASSERT_LE(w.entries[w.fired[k]].expires, now);
      }
    }
    const util::Timestamp ahead =
        i % 50 == 0 ? (i / 50 % 16 + 1) * kHorizon / 16 : 0;
    w.schedule(now + kHorizon + ahead);
    watermark = std::min(watermark, w.entries.back().expires);
  }
  // The bound kept the gate sound: everything due by now has fired.
  if (now >= watermark) w.advance(now);
  const auto due = std::count_if(
      w.entries.begin(), w.entries.end(),
      [&](const WheelHarness::Entry& e) { return e.expires <= now; });
  EXPECT_EQ(w.fired.size(), static_cast<size_t>(due));
  EXPECT_GT(due, kInserts / 2);
  EXPECT_LT(w.expiry_reads, 4u * kInserts);
}

TEST(ExpiryWheel, LongIdleGapDrainsEverySlotOnce) {
  WheelHarness w(kSecond, 64);
  for (int i = 0; i < 200; ++i) {
    w.schedule((1 + i % 60) * kSecond);
  }
  // Jump far past several wheel revolutions: one advance must fire
  // everything without spinning revolution-by-revolution.
  const auto result = w.advance(1000 * kSecond);
  EXPECT_EQ(result.fired, 200u);
  EXPECT_EQ(w.wheel.size(), 0u);
  EXPECT_EQ(w.wheel.occupied_slots(), 0u);
}

TEST(ExpiryWheel, PopFrontEvictsOldestUnderMonotoneInserts) {
  WheelHarness w(kSecond, 64);
  const uint32_t a = w.schedule(3 * kSecond);
  const uint32_t b = w.schedule(5 * kSecond);
  const uint32_t c = w.schedule(9 * kSecond);
  EXPECT_EQ(w.wheel.pop_front(w.next_ref()), a);
  EXPECT_EQ(w.wheel.pop_front(w.next_ref()), b);
  EXPECT_EQ(w.wheel.pop_front(w.next_ref()), c);
  EXPECT_EQ(w.wheel.pop_front(w.next_ref()), state::ExpiryWheel::kNil);
}

// Dues that grow (FlowTable's touch): the owner moves an entry's
// expiry later without telling the wheel, and expiry_of reports the new
// value. A grown head of the current slot must not hide the due entries
// filed behind it, nor hold the watermark at its own new expiry.

TEST(ExpiryWheel, GrownHeadIsRefiledSoTheDueEntryBehindItFires) {
  WheelHarness w(/*tick=*/10 * kSecond, /*slots=*/64);
  const uint32_t head = w.schedule(11 * kSecond);
  const uint32_t behind = w.schedule(12 * kSecond);  // same slot
  const uint32_t later = w.schedule(25 * kSecond);   // next slot
  w.entries[head].expires = 35 * kSecond;  // grown past the current tick

  const auto result = w.advance(12 * kSecond);
  EXPECT_EQ(result.fired, 1u);
  EXPECT_EQ(w.fired, (std::vector<uint32_t>{behind}));
  EXPECT_LE(result.next_due_bound, w.min_unfired());

  // Nothing fires before its current expiry, the grown one included.
  EXPECT_EQ(w.advance(25 * kSecond).fired, 1u);
  EXPECT_EQ(w.advance(35 * kSecond - 1).fired, 0u);
  EXPECT_EQ(w.advance(35 * kSecond).fired, 1u);
  EXPECT_EQ(w.fired, (std::vector<uint32_t>{behind, later, head}));
  EXPECT_EQ(w.wheel.size(), 0u);
}

TEST(ExpiryWheel, GrownHeadAloneInTheWheelDoesNotLiftTheWatermark) {
  // The grown head's slot is the only occupied one: reporting its new
  // expiry as the bound would gate every purge until then while the
  // entry behind it is already due.
  WheelHarness w(/*tick=*/10 * kSecond, /*slots=*/64);
  const uint32_t head = w.schedule(11 * kSecond);
  const uint32_t behind = w.schedule(12 * kSecond);
  w.entries[head].expires = 35 * kSecond;

  const auto result = w.advance(12 * kSecond);
  EXPECT_EQ(result.fired, 1u);
  EXPECT_EQ(w.fired, (std::vector<uint32_t>{behind}));
  EXPECT_LE(result.next_due_bound, w.min_unfired());
  EXPECT_EQ(w.wheel.size(), 1u);
  EXPECT_EQ(w.advance(35 * kSecond).fired, 1u);
  EXPECT_EQ(w.fired, (std::vector<uint32_t>{behind, head}));
}

// --- DescriptorStore ------------------------------------------------

cookies::CookieDescriptor make_descriptor(cookies::CookieId id,
                                          size_t key_len = 32) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.resize(key_len);
  for (size_t i = 0; i < key_len; ++i) {
    d.key[i] = static_cast<uint8_t>(id * 31 + i);
  }
  d.service_data = "Boost";
  d.attributes.transports = {cookies::Transport::kUdpHeader};
  d.attributes.extra["region"] = "us";
  return d;
}

TEST(DescriptorStore, MaterializeRoundTripsExactly) {
  // Profiles run A, A, B, A, A' (A' differs from A only in
  // mapping_ttl), so interning must match the last profile across an
  // expiry, tell a new profile from the last one, and come back to an
  // earlier one.
  cookies::DescriptorStore store;
  auto with_expiry = make_descriptor(1);
  with_expiry.attributes.expires_at = 42 * kSecond;
  auto other_service = make_descriptor(4);
  other_service.service_data = "Video";
  auto no_expiry = make_descriptor(2);
  auto long_key = make_descriptor(3, /*key_len=*/48);  // spills
  auto with_ttl = make_descriptor(5);
  with_ttl.attributes.mapping_ttl = 60 * kSecond;
  const std::vector<cookies::CookieDescriptor> inputs = {
      no_expiry, with_expiry, other_service, long_key, with_ttl};
  for (const auto& descriptor : inputs) store.upsert(descriptor);

  for (const auto& original : inputs) {
    const auto* record = store.find(original.cookie_id);
    ASSERT_NE(record, nullptr);
    EXPECT_FALSE(record->revoked);
    EXPECT_EQ(store.materialize(*record), original);
  }
  // A (shared by three records, expiry or not), B and A'.
  EXPECT_EQ(store.profile_count(), 3u);
}

TEST(DescriptorStore, ExpiryLivesPerRecordNotPerProfile) {
  cookies::DescriptorStore store;
  auto a = make_descriptor(1);
  a.attributes.expires_at = 10 * kSecond;
  auto b = make_descriptor(2);
  b.attributes.expires_at = 99 * kSecond;
  store.upsert(a);
  store.upsert(b);
  // Distinct expiries share one interned profile; each record carries
  // its own.
  EXPECT_EQ(store.profile_count(), 1u);
  EXPECT_TRUE(store.find(1)->expired(10 * kSecond));
  EXPECT_FALSE(store.find(2)->expired(10 * kSecond));
  EXPECT_EQ(store.materialize(*store.find(2)), b);
}

TEST(DescriptorStore, EraseSwapKeepsOtherRecordsFindable) {
  cookies::DescriptorStore store;
  for (cookies::CookieId id = 1; id <= 100; ++id) {
    store.upsert(make_descriptor(id));
  }
  // Erase from the middle: swap-remove moves the last record into the
  // hole and must re-point its index entry.
  EXPECT_TRUE(store.erase(50));
  EXPECT_FALSE(store.erase(50));
  EXPECT_EQ(store.size(), 99u);
  for (cookies::CookieId id = 1; id <= 100; ++id) {
    const auto* record = store.find(id);
    if (id == 50) {
      EXPECT_EQ(record, nullptr);
      continue;
    }
    ASSERT_NE(record, nullptr) << id;
    EXPECT_EQ(store.materialize(*record), make_descriptor(id));
  }
}

TEST(DescriptorStore, RevokeUnknownIdPlantsTombstone) {
  cookies::DescriptorStore store;
  store.revoke(77);
  const auto* record = store.find(77);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->revoked);
  // Re-granting clears the tombstone.
  store.upsert(make_descriptor(77));
  EXPECT_FALSE(store.find(77)->revoked);
}

// --- HotTier --------------------------------------------------------

TEST(HotTier, LookupTrustsOnlyCurrentEpoch) {
  cookies::DescriptorStore store;
  store.upsert(make_descriptor(1));
  cookies::HotTier tier(/*budget=*/8);

  EXPECT_EQ(tier.lookup(1, /*epoch=*/1), nullptr);
  const auto* admitted = tier.admit(*store.find(1), store, /*epoch=*/1);
  ASSERT_NE(admitted, nullptr);
  const auto descriptor = make_descriptor(1);
  EXPECT_EQ(admitted->id, 1u);
  EXPECT_EQ(admitted->schedule,
            crypto::HmacKeySchedule(util::BytesView(descriptor.key)));
  EXPECT_EQ(store.profile(admitted->profile).service_data,
            descriptor.service_data);
  EXPECT_EQ(store.profile(admitted->profile).attributes,
            descriptor.attributes);
  EXPECT_EQ(tier.rehydrations(), 1u);

  EXPECT_NE(tier.lookup(1, 1), nullptr);
  // Table swap: stale stamp, the caller must re-resolve.
  EXPECT_EQ(tier.lookup(1, 2), nullptr);
  // Revalidation with an unchanged key keeps the schedule (no rebuild).
  tier.admit(*store.find(1), store, 2);
  EXPECT_EQ(tier.rehydrations(), 1u);
  EXPECT_NE(tier.lookup(1, 2), nullptr);
  EXPECT_EQ(tier.resident(), 1u);
}

TEST(HotTier, KeyRotationRebuildsSchedule) {
  cookies::DescriptorStore store;
  store.upsert(make_descriptor(1));
  cookies::HotTier tier(8);
  tier.admit(*store.find(1), store, 1);
  ASSERT_EQ(tier.rehydrations(), 1u);

  auto rotated = make_descriptor(1);
  rotated.key.assign(32, 0xAB);
  store.upsert(rotated);
  const auto* entry = tier.admit(*store.find(1), store, 2);
  EXPECT_EQ(tier.rehydrations(), 2u);
  EXPECT_EQ(entry->schedule,
            crypto::HmacKeySchedule(util::BytesView(rotated.key)));
}

TEST(HotTier, BudgetBoundsResidencyViaClockEviction) {
  cookies::DescriptorStore store;
  for (cookies::CookieId id = 1; id <= 32; ++id) {
    store.upsert(make_descriptor(id));
  }
  cookies::HotTier tier(/*budget=*/4);
  for (cookies::CookieId id = 1; id <= 32; ++id) {
    tier.begin_burst();
    tier.admit(*store.find(id), store, 1);
  }
  EXPECT_LE(tier.resident(), 4u);
  EXPECT_GE(tier.evictions(), 28u);
  // The most recent admission survived.
  EXPECT_NE(tier.lookup(32, 1), nullptr);
}

TEST(HotTier, EvictedEntryStaysReadableUntilNextBurst) {
  cookies::DescriptorStore store;
  store.upsert(make_descriptor(1));
  store.upsert(make_descriptor(2));
  cookies::HotTier tier(/*budget=*/1);
  tier.begin_burst();
  const auto* first = tier.admit(*store.find(1), store, 1);
  // Admitting a second entry over a budget of one evicts the first —
  // but mid-burst eviction only parks the slot in limbo, so a
  // VerifyResult still pointing at it reads intact data.
  const auto* second = tier.admit(*store.find(2), store, 1);
  ASSERT_NE(first, second);
  EXPECT_EQ(first->id, 1u);
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(tier.resident(), 1u);
  // Next burst releases the limbo slot for reuse.
  tier.begin_burst();
  tier.admit(*store.find(1), store, 1);
  EXPECT_EQ(tier.resident(), 1u);
}

}  // namespace
}  // namespace nnn
