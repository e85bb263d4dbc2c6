// CookieVerifier: the four checks of §4.2 plus revocation/expiry.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "controlplane/table_mirror.h"
#include "cookies/generator.h"
#include "cookies/verifier.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::cookies {
namespace {

CookieDescriptor make_descriptor(CookieId id) {
  CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 11 + 1));
  d.service_data = "Boost";
  return d;
}

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() : clock_(1'000'000 * util::kSecond), verifier_(clock_) {}

  CookieGenerator install(CookieId id) {
    auto descriptor = make_descriptor(id);
    verifier_.add_descriptor(descriptor);
    return CookieGenerator(descriptor, clock_, id);
  }

  /// One cookie through verify(), or through verify_batch() as a
  /// burst of one.
  VerifyStatus check(const Cookie& cookie, bool batched) {
    if (!batched) return verifier_.verify(cookie).status;
    VerifyResult result;
    verifier_.verify_batch(std::span<const Cookie>(&cookie, 1),
                           std::span<VerifyResult>(&result, 1));
    return result.status;
  }

  util::ManualClock clock_;
  CookieVerifier verifier_;
};

TEST_F(VerifierTest, ValidCookieVerifies) {
  auto gen = install(1);
  const auto result = verifier_.verify(gen.generate());
  EXPECT_TRUE(result.ok());
  ASSERT_TRUE(result.descriptor.has_value());
  EXPECT_EQ(result.descriptor->service_data(), "Boost");
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kOk), 1u);
}

TEST_F(VerifierTest, UnknownIdRejected) {
  auto gen = install(2);
  Cookie c = gen.generate();
  c.cookie_id = 999;
  EXPECT_EQ(verifier_.verify(c).status, VerifyStatus::kUnknownId);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kUnknownId), 1u);
}

TEST_F(VerifierTest, ForgedSignatureRejected) {
  auto gen = install(3);
  Cookie c = gen.generate();
  c.signature[5] ^= 0x01;
  EXPECT_EQ(verifier_.verify(c).status, VerifyStatus::kBadSignature);
}

TEST_F(VerifierTest, WrongKeyRejected) {
  auto descriptor = make_descriptor(4);
  verifier_.add_descriptor(descriptor);
  auto other = descriptor;
  other.key.assign(32, 0xEE);
  CookieGenerator rogue(other, clock_, 4);
  EXPECT_EQ(verifier_.verify(rogue.generate()).status,
            VerifyStatus::kBadSignature);
}

TEST_F(VerifierTest, ReplayRejected) {
  auto gen = install(5);
  const Cookie c = gen.generate();
  EXPECT_TRUE(verifier_.verify(c).ok());
  EXPECT_EQ(verifier_.verify(c).status, VerifyStatus::kReplayed);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kReplayed), 1u);
}

TEST_F(VerifierTest, NctWindowBoundaries) {
  auto gen = install(6);
  // Exactly NCT old: still accepted (Listing 3 rejects only > NCT).
  Cookie c = gen.generate();
  clock_.advance(kNetworkCoherencyTime);
  EXPECT_TRUE(verifier_.verify(c).ok());
  // One second past NCT: stale.
  Cookie late = gen.generate();
  clock_.advance(kNetworkCoherencyTime + util::kSecond);
  EXPECT_EQ(verifier_.verify(late).status, VerifyStatus::kStaleTimestamp);
}

TEST_F(VerifierTest, FutureTimestampRejected) {
  auto gen = install(7);
  Cookie c = gen.generate();
  c.timestamp += 100;  // forged future time
  c.signature = c.compute_tag(util::BytesView(make_descriptor(7).key));
  EXPECT_EQ(verifier_.verify(c).status, VerifyStatus::kStaleTimestamp);
}

// Accept-at-most-once (§4.2) at the freshness window's edges: a cookie
// passes the timestamp check until NCT past the second it is dated, so
// the replay cache must remember its uuid at least that long.
TEST_F(VerifierTest, CookieVerifiedMidSecondIsAcceptedOnce) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "verify_batch" : "verify");
    auto gen = install(batched ? 41 : 40);
    clock_.set((batched ? 2'000'000 : 1'000'000) * util::kSecond +
               300 * util::kMillisecond);
    const Cookie c = gen.generate();  // dated 0.3 s before now
    EXPECT_EQ(check(c, batched), VerifyStatus::kOk);
    // NCT + 0.2 s later the cache has forgotten the uuid, and the
    // cookie is 5.5 s past its date: stale, not fresh again.
    clock_.advance(kNetworkCoherencyTime + 200 * util::kMillisecond);
    EXPECT_EQ(check(c, batched), VerifyStatus::kStaleTimestamp);
  }
}

TEST_F(VerifierTest, CookieDatedAheadIsAcceptedOnce) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "verify_batch" : "verify");
    const CookieId id = batched ? 43 : 42;
    auto gen = install(id);
    clock_.set((batched ? 2'000'000 : 1'000'000) * util::kSecond);
    Cookie c = gen.generate();
    c.timestamp += kNetworkCoherencyTime / util::kSecond;  // NCT ahead
    c.signature = c.compute_tag(util::BytesView(make_descriptor(id).key));
    EXPECT_EQ(check(c, batched), VerifyStatus::kOk);
    // 6 s on the cookie is 1 s past its date, still fresh: the uuid
    // must still be remembered.
    clock_.advance(6 * util::kSecond);
    EXPECT_EQ(check(c, batched), VerifyStatus::kReplayed);
    // Once NCT past its date the cookie is stale.
    clock_.advance(kNetworkCoherencyTime);
    EXPECT_EQ(check(c, batched), VerifyStatus::kStaleTimestamp);
  }
}

TEST_F(VerifierTest, RevocationTombstones) {
  auto gen = install(8);
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  EXPECT_TRUE(verifier_.revoke(8));
  EXPECT_EQ(verifier_.verify(gen.generate()).status,
            VerifyStatus::kDescriptorRevoked);
  // Revoking an id never added reports it unknown, yet leaves a
  // tombstone, as a synced table does: its cookies verify as revoked.
  EXPECT_FALSE(verifier_.revoke(999));
  EXPECT_TRUE(verifier_.knows(999));
  CookieGenerator never_added(make_descriptor(999), clock_, 999);
  EXPECT_EQ(verifier_.verify(never_added.generate()).status,
            VerifyStatus::kDescriptorRevoked);
  // find() hides revoked descriptors.
  EXPECT_EQ(verifier_.find(8), nullptr);
  // Re-adding reinstates service.
  verifier_.add_descriptor(make_descriptor(8));
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
}

TEST_F(VerifierTest, ExpiredDescriptorRejected) {
  auto descriptor = make_descriptor(9);
  descriptor.attributes.expires_at = clock_.now() + 10 * util::kSecond;
  verifier_.add_descriptor(descriptor);
  CookieGenerator gen(descriptor, clock_, 9);
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  clock_.advance(11 * util::kSecond);
  EXPECT_EQ(verifier_.verify(gen.generate()).status,
            VerifyStatus::kDescriptorExpired);
}

TEST_F(VerifierTest, RemoveForgetsEntirely) {
  auto gen = install(10);
  EXPECT_TRUE(verifier_.remove(10));
  EXPECT_EQ(verifier_.verify(gen.generate()).status,
            VerifyStatus::kUnknownId);
  EXPECT_FALSE(verifier_.remove(10));
}

TEST_F(VerifierTest, WireAndTextVerification) {
  auto gen = install(11);
  EXPECT_TRUE(
      verifier_.verify_wire(util::BytesView(gen.generate().encode())).ok());
  EXPECT_TRUE(verifier_.verify_text(gen.generate().encode_text()).ok());
  // A blob that does not decode is malformed, not an unknown
  // descriptor — fuzz noise and never-issued ids stay distinguishable.
  EXPECT_EQ(verifier_.verify_text("garbage").status,
            VerifyStatus::kMalformed);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kMalformed), 1u);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kUnknownId), 0u);
}

TEST_F(VerifierTest, RemoveThenReAddKeepsUseOnce) {
  // Use-once memory belongs to the verifier, not to the descriptor
  // entry: dropping a descriptor and installing it again must not
  // make an already-spent cookie spendable.
  auto gen = install(12);
  const Cookie c = gen.generate();
  EXPECT_TRUE(verifier_.verify(c).ok());
  EXPECT_TRUE(verifier_.remove(12));
  verifier_.add_descriptor(make_descriptor(12));
  EXPECT_EQ(verifier_.verify(c).status, VerifyStatus::kReplayed);
}

TEST_F(VerifierTest, StatsTotalsAdd) {
  auto gen = install(14);
  const Cookie c = gen.generate();
  verifier_.verify(c);
  verifier_.verify(c);
  Cookie bad = gen.generate();
  bad.signature[0] ^= 1;
  verifier_.verify(bad);
  EXPECT_EQ(verifier_.stats().total(), 3u);
  verifier_.reset_stats();
  EXPECT_EQ(verifier_.stats().total(), 0u);
}

TEST_F(VerifierTest, BatchMatchesSequentialOnMixedBurst) {
  // Differential: verify_batch against a reference verifier fed the
  // same burst one cookie at a time. Same descriptors, same clock —
  // results and stats must be bit-identical, including the
  // order-sensitive outcomes (replay, stale).
  CookieVerifier reference(clock_);
  std::vector<CookieGenerator> gens;
  for (const CookieId id : {20u, 21u, 22u}) {
    const auto descriptor = make_descriptor(id);
    verifier_.add_descriptor(descriptor);
    reference.add_descriptor(descriptor);
    gens.emplace_back(descriptor, clock_, id);
  }

  // An old cookie that will be stale once the burst runs...
  const Cookie stale = gens[0].generate();
  clock_.advance(kNetworkCoherencyTime + 2 * util::kSecond);

  std::vector<Cookie> burst;
  for (int round = 0; round < 3; ++round) {
    for (auto& gen : gens) burst.push_back(gen.generate());
  }
  burst.push_back(burst[1]);  // replay of an earlier in-burst cookie
  burst.push_back(stale);
  Cookie forged = gens[1].generate();
  forged.signature[3] ^= 0x40;
  burst.push_back(forged);
  Cookie unknown = gens[2].generate();
  unknown.cookie_id = 404;
  burst.push_back(unknown);
  burst.push_back(burst[4]);  // second replay, different descriptor

  std::vector<VerifyResult> batched(burst.size());
  verifier_.verify_batch(burst, batched);
  for (size_t i = 0; i < burst.size(); ++i) {
    const VerifyResult expected = reference.verify(burst[i]);
    EXPECT_EQ(batched[i].status, expected.status) << "cookie " << i;
    // The views come from different verifiers; compare what they
    // show.
    ASSERT_EQ(batched[i].descriptor.has_value(),
              expected.descriptor.has_value())
        << "cookie " << i;
    if (expected.descriptor.has_value()) {
      EXPECT_EQ(batched[i].descriptor->cookie_id(),
                expected.descriptor->cookie_id());
    }
  }
  EXPECT_EQ(verifier_.stats(), reference.stats());
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kReplayed), 2u);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kStaleTimestamp), 1u);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kBadSignature), 1u);
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kUnknownId), 1u);
}

TEST_F(VerifierTest, BatchSeesEarlierCookiesInSameBurst) {
  // A uuid used twice within one burst: the first is fresh, the second
  // must already be a replay — the batch path may not defer replay
  // bookkeeping past the burst.
  auto gen = install(30);
  const Cookie c = gen.generate();
  std::vector<Cookie> burst = {c, c, c};
  std::vector<VerifyResult> results(burst.size());
  verifier_.verify_batch(burst, results);
  EXPECT_EQ(results[0].status, VerifyStatus::kOk);
  EXPECT_EQ(results[1].status, VerifyStatus::kReplayed);
  EXPECT_EQ(results[2].status, VerifyStatus::kReplayed);
}

TEST_F(VerifierTest, BatchScratchReuseAcrossCalls) {
  // Back-to-back bursts reuse the verifier's sort scratch; results
  // must not leak between calls (and the empty burst is a no-op).
  auto gen = install(31);
  std::vector<VerifyResult> empty_results;
  verifier_.verify_batch({}, empty_results);
  EXPECT_EQ(verifier_.stats().total(), 0u);
  for (int round = 0; round < 3; ++round) {
    std::vector<Cookie> burst = {gen.generate(), gen.generate()};
    std::vector<VerifyResult> results(burst.size());
    verifier_.verify_batch(burst, results);
    EXPECT_EQ(results[0].status, VerifyStatus::kOk) << "round " << round;
    EXPECT_EQ(results[1].status, VerifyStatus::kOk) << "round " << round;
  }
  EXPECT_EQ(verifier_.stats().count(VerifyStatus::kOk), 6u);
}

TEST(VerifierStandalone, FailOpenSemantics) {
  // A failed verification must never be an error path: it returns a
  // result the caller maps to best-effort, it does not throw.
  util::ManualClock clock(0);
  CookieVerifier verifier(clock);
  Cookie junk;
  junk.cookie_id = 1234;
  EXPECT_NO_THROW({
    const auto result = verifier.verify(junk);
    EXPECT_FALSE(result.ok());
  });
}

// --- External-table mode: hot/cold tiering --------------------------

class ExternalVerifierTest : public ::testing::Test {
 protected:
  ExternalVerifierTest()
      : clock_(1'000'000 * util::kSecond), verifier_(clock_) {}

  /// Build an immutable table from the mirror, stamped like the
  /// publisher would.
  void publish(uint64_t epoch) {
    table_ = mirror_.build();
    table_->set_epoch(epoch);
    verifier_.set_external_table(table_.get());
  }

  /// `salt` picks a distinct uuid stream: the replay cache is
  /// verifier-wide, so two generators for the same descriptor must not
  /// replay each other's uuids.
  CookieGenerator generator(const CookieDescriptor& descriptor,
                            uint64_t salt = 0) {
    return CookieGenerator(descriptor, clock_,
                           descriptor.cookie_id + (salt << 32));
  }

  util::ManualClock clock_;
  CookieVerifier verifier_;
  controlplane::TableMirror mirror_;
  std::unique_ptr<DescriptorTable> table_;
};

TEST_F(ExternalVerifierTest, ColdHitRehydratesThenStaysHot) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));

  EXPECT_EQ(verifier_.hot_tier().resident(), 0u);
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  // First sight built the key schedule from the 64-byte cold record.
  EXPECT_EQ(verifier_.hot_tier().resident(), 1u);
  EXPECT_EQ(verifier_.hot_tier().rehydrations(), 1u);
  // Subsequent cookies ride the midstate cache: no further rebuilds.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  }
  EXPECT_EQ(verifier_.hot_tier().rehydrations(), 1u);
  EXPECT_GE(verifier_.hot_tier().hits(), 10u);
}

TEST_F(ExternalVerifierTest, TableSwapRevalidatesWithoutRekeying) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  ASSERT_EQ(verifier_.hot_tier().rehydrations(), 1u);

  // Swap to a new epoch with the same key: the entry revalidates, the
  // schedule survives.
  publish(2);
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  EXPECT_EQ(verifier_.hot_tier().rehydrations(), 1u);

  // Rotate the key and swap again: old-key cookies die, new-key
  // cookies verify, and the schedule was rebuilt exactly once.
  auto rotated = make_descriptor(1);
  rotated.key.assign(32, 0xCD);
  ASSERT_TRUE(mirror_.apply(controlplane::Update{2, controlplane::UpdateOp::kAdd, 1, rotated}));
  publish(3);
  EXPECT_EQ(verifier_.verify(gen.generate()).status,
            VerifyStatus::kBadSignature);
  auto rotated_gen = generator(rotated, /*salt=*/1);
  EXPECT_EQ(verifier_.verify(rotated_gen.generate()).status, VerifyStatus::kOk);
  EXPECT_EQ(verifier_.hot_tier().rehydrations(), 2u);
}

TEST_F(ExternalVerifierTest, RevokedRecordShortCircuitsWithoutAdmission) {
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  auto gen = generator(make_descriptor(1));
  EXPECT_TRUE(verifier_.verify(gen.generate()).ok());

  ASSERT_TRUE(mirror_.apply(controlplane::Update{2, controlplane::UpdateOp::kRevoke, 1, {}}));
  publish(2);
  EXPECT_EQ(verifier_.verify(gen.generate()).status,
            VerifyStatus::kDescriptorRevoked);
  EXPECT_TRUE(verifier_.knows(1));
  EXPECT_EQ(verifier_.find(1), nullptr);
  // The stale epoch-1 entry never re-admitted; nothing holds midstates
  // for a revoked descriptor at the current epoch.
  EXPECT_EQ(verifier_.hot_tier().peek(1, 2), nullptr);
}

TEST_F(ExternalVerifierTest, ReplayScopeIsVerifierWideAcrossDescriptors) {
  // A verifier keeps ONE uuid-keyed replay cache across descriptors,
  // whichever table it reads (uuids are 128-bit randoms, so a
  // cross-descriptor collision is adversarial reuse). Re-signing a
  // seen uuid under a different descriptor's key must still be
  // caught. Inputs: a verifier with both descriptors in its own
  // table, and this fixture's verifier over a published table.
  const auto d1 = make_descriptor(1);
  const auto d2 = make_descriptor(2);
  CookieVerifier local(clock_);
  local.add_descriptor(d1);
  local.add_descriptor(d2);
  mirror_.reset(1, {d1, d2}, {});
  publish(1);
  for (CookieVerifier* verifier : {&local, &verifier_}) {
    SCOPED_TRACE(verifier == &local ? "own table" : "published table");
    auto gen = generator(d1);
    const Cookie first = gen.generate();
    EXPECT_TRUE(verifier->verify(first).ok());

    Cookie cross = first;
    cross.cookie_id = 2;
    cross.signature = cross.compute_tag(util::BytesView(d2.key));
    EXPECT_EQ(verifier->verify(cross).status, VerifyStatus::kReplayed);
    EXPECT_EQ(verifier->external_replay().size(), 1u);
  }
}

TEST_F(ExternalVerifierTest, LeavingTheOwnTableDropsItsHotEntries) {
  // Own and published epochs both count from 1. Id 1 verifies under
  // K1 from the verifier's own table at epoch 1; the published table
  // also has epoch 1 but holds id 1 under K2. The K1 entry must not
  // pass for the published record.
  const auto k1 = make_descriptor(1);
  verifier_.add_descriptor(k1);
  EXPECT_TRUE(verifier_.verify(generator(k1).generate()).ok());
  ASSERT_NE(verifier_.hot_tier().peek(1, 1), nullptr)
      << "premise: the own-table entry is stamped with epoch 1";

  auto k2 = make_descriptor(1);
  k2.key.assign(32, 0xC2);
  mirror_.reset(1, {k2}, {});
  publish(1);
  EXPECT_EQ(verifier_.verify(generator(k2, /*salt=*/1).generate()).status,
            VerifyStatus::kOk);
  EXPECT_EQ(verifier_.verify(generator(k1, /*salt=*/2).generate()).status,
            VerifyStatus::kBadSignature);
}

TEST_F(ExternalVerifierTest, HotBudgetEvictsColdDescriptors) {
  std::vector<CookieDescriptor> live;
  for (CookieId id = 1; id <= 8; ++id) live.push_back(make_descriptor(id));
  mirror_.reset(1, live, {});
  publish(1);
  verifier_.set_hot_budget(2);
  for (CookieId id = 1; id <= 8; ++id) {
    auto gen = generator(make_descriptor(id));
    EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  }
  EXPECT_LE(verifier_.hot_tier().resident(), 2u);
  EXPECT_GE(verifier_.hot_tier().evictions(), 6u);
  // Evicted descriptors still verify — they just pay rehydration.
  auto gen = generator(make_descriptor(1), /*salt=*/1);
  EXPECT_EQ(verifier_.verify(gen.generate()).status, VerifyStatus::kOk);
}

TEST_F(ExternalVerifierTest, ConfiguredReplayCapacityClampsFlood) {
  // External input: ten cookies under one published descriptor.
  mirror_.reset(1, {make_descriptor(1)}, {});
  publish(1);
  verifier_.configure_external_replay(4);
  auto gen = generator(make_descriptor(1));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(verifier_.verify(gen.generate()).ok());
  }
  EXPECT_EQ(verifier_.external_replay().size(), 4u);
  EXPECT_EQ(verifier_.external_replay().capacity_evictions(), 6u);

  // Local input: one cookie under each of ten installed descriptors.
  // The one clamp bounds them all, not one clamp per descriptor.
  CookieVerifier local(clock_);
  local.configure_external_replay(4);
  for (CookieId id = 1; id <= 10; ++id) {
    local.add_descriptor(make_descriptor(id));
    auto local_gen = generator(make_descriptor(id));
    EXPECT_TRUE(local.verify(local_gen.generate()).ok()) << "id " << id;
  }
  EXPECT_EQ(local.external_replay().size(), 4u);
  EXPECT_EQ(local.external_replay().capacity_evictions(), 6u);
}

TEST_F(ExternalVerifierTest, BatchMatchesSequentialInExternalMode) {
  const auto d1 = make_descriptor(1);
  const auto d2 = make_descriptor(2);
  mirror_.reset(1, {d1, d2}, {});
  publish(1);

  auto gen1 = generator(d1);
  auto gen2 = generator(d2);
  std::vector<Cookie> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(i % 2 == 0 ? gen1.generate() : gen2.generate());
  }
  burst.push_back(burst[0]);  // replay within the burst
  Cookie forged = gen1.generate();
  forged.signature[0] ^= 1;
  burst.push_back(forged);

  // Sequential twin run on a fresh verifier over the same table.
  CookieVerifier sequential(clock_);
  sequential.set_external_table(table_.get());
  std::vector<VerifyResult> expected;
  for (const Cookie& c : burst) expected.push_back(sequential.verify(c));

  std::vector<VerifyResult> results(burst.size());
  verifier_.verify_batch(burst, results);
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(results[i].status, expected[i].status) << "cookie " << i;
  }
  EXPECT_EQ(verifier_.stats(), sequential.stats());
}

// --- Hot tier against a reference model -----------------------------

/// Random operation sequences over a few ids, checked against a
/// std::map of what the current table holds (nullopt = tombstone).
/// Edits keep the key, rotate it, spill it past the 32 inline bytes, or
/// change the profile or the expiry; revocations, erases, publishes,
/// clock steps, budget evictions and burst boundaries come between the
/// verifies and finds. Whatever the hot tier serves must be the current
/// table's: a kOk only for a known, unrevoked, unexpired id, a tag from
/// the current key, and the current profile's service data and
/// attributes. Runs against published tables and against the
/// verifier's own table, whose profile vector grows under live views.
class HotTierModel {
 public:
  HotTierModel(bool own_table, uint64_t seed)
      : own_(own_table), rng_(seed), clock_(1'000'000 * util::kSecond),
        verifier_(clock_) {
    verifier_.set_hot_budget(3);  // fewer than kIds: evictions happen
  }

  void run(size_t steps) {
    for (size_t step = 0; step < steps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const CookieId id = 1 + rng_.next_u64(kIds);
      switch (rng_.next_u64(12)) {
        case 0: edit(id, Change::kNothing); break;
        case 1: edit(id, Change::kKey); break;
        case 2: edit(id, Change::kSpilledKey); break;
        case 3: edit(id, Change::kProfile); break;
        case 4: edit(id, Change::kExpiry); break;
        case 5: revoke(id); break;
        case 6: erase(id); break;
        case 7: publish(); break;
        case 8: clock_.advance(util::kSecond); break;
        case 9: verify_burst(); break;
        case 10: find(id); break;
        default: verify_one(id); break;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The sequence reached every verdict and evicted under the budget.
    for (const VerifyStatus status :
         {VerifyStatus::kOk, VerifyStatus::kUnknownId,
          VerifyStatus::kBadSignature, VerifyStatus::kDescriptorExpired,
          VerifyStatus::kDescriptorRevoked}) {
      EXPECT_GT(verifier_.stats().count(status), 0u) << to_string(status);
    }
    EXPECT_GT(verifier_.hot_tier().evictions(), 0u);
  }

 private:
  static constexpr CookieId kIds = 5;
  enum class Change { kNothing, kKey, kSpilledKey, kProfile, kExpiry };
  using Table = std::map<CookieId, std::optional<CookieDescriptor>>;

  util::Bytes random_key(size_t length) {
    util::Bytes key(length);
    for (uint8_t& byte : key) byte = static_cast<uint8_t>(rng_.next_u32());
    return key;
  }

  void random_profile(CookieDescriptor& d) {
    static const char* const kServices[] = {"Boost", "Video", "Zero"};
    d.service_data = kServices[rng_.next_u64(3)];
    d.attributes.reverse_flow = rng_.next_u64(2) == 0;
    d.attributes.transports.clear();
    if (rng_.next_u64(2) == 0) {
      d.attributes.transports.push_back(Transport::kUdpHeader);
    }
    // A fresh extra now and then interns a new profile (and grows the
    // own table's profile vector).
    d.attributes.extra["tier"] = std::to_string(rng_.next_u64(8));
  }

  void random_expiry(CookieDescriptor& d) {
    switch (rng_.next_u64(3)) {
      case 0: d.attributes.expires_at.reset(); break;
      case 1: d.attributes.expires_at = clock_.now() - util::kSecond; break;
      default:
        d.attributes.expires_at =
            clock_.now() + static_cast<util::Timestamp>(1 + rng_.next_u64(3)) *
                               util::kSecond;
    }
  }

  void edit(CookieId id, Change change) {
    const auto it = staged_.find(id);
    const bool live = it != staged_.end() && it->second.has_value();
    CookieDescriptor d;
    if (live) {
      d = *it->second;
    } else {
      d.cookie_id = id;
      d.key = random_key(32);
      random_profile(d);
    }
    switch (change) {
      case Change::kNothing: break;
      case Change::kKey: d.key = random_key(32); break;
      case Change::kSpilledKey: d.key = random_key(48); break;
      case Change::kProfile: random_profile(d); break;
      case Change::kExpiry: random_expiry(d); break;
    }
    if (live && it->second->key != d.key) old_keys_[id] = it->second->key;
    staged_[id] = d;
    if (own_) {
      verifier_.add_descriptor(d);
      current_ = staged_;
    } else {
      store_.upsert(d);
    }
  }

  void revoke(CookieId id) {
    staged_[id] = std::nullopt;
    if (own_) {
      verifier_.revoke(id);
      current_ = staged_;
    } else {
      store_.revoke(id);
    }
  }

  void erase(CookieId id) {
    staged_.erase(id);
    if (own_) {
      verifier_.remove(id);
      current_ = staged_;
    } else {
      store_.erase(id);
    }
  }

  void publish() {
    if (own_) return;  // own-table edits are current at once
    auto table = std::make_unique<DescriptorTable>(++epoch_, store_);
    table->set_epoch(epoch_);
    verifier_.set_external_table(table.get());
    table_ = std::move(table);  // the old table dies after the switch
    current_ = staged_;
  }

  /// A fresh cookie for `id`, signed with its current key, a stale key
  /// or (for ids the table does not hold) a random one.
  Cookie mint(CookieId id, util::Bytes& key) {
    const auto it = current_.find(id);
    const bool live = it != current_.end() && it->second.has_value();
    if (live && (rng_.next_u64(4) != 0 || old_keys_.count(id) == 0)) {
      key = it->second->key;
    } else if (old_keys_.count(id) != 0) {
      key = old_keys_[id];
    } else {
      key = random_key(32);
    }
    Cookie cookie;
    cookie.cookie_id = id;
    cookie.uuid = crypto::Uuid::generate(rng_);
    cookie.timestamp = to_cookie_time(clock_.now());
    cookie.signature = cookie.compute_tag(util::BytesView(key));
    return cookie;
  }

  VerifyStatus expected(CookieId id, const util::Bytes& key) const {
    const auto it = current_.find(id);
    if (it == current_.end()) return VerifyStatus::kUnknownId;
    if (!it->second.has_value()) return VerifyStatus::kDescriptorRevoked;
    if (it->second->expired(clock_.now())) {
      return VerifyStatus::kDescriptorExpired;
    }
    if (it->second->key != key) return VerifyStatus::kBadSignature;
    return VerifyStatus::kOk;
  }

  /// What a served view shows must be the current descriptor's.
  void check_view(const DescriptorView& view, CookieId id) {
    const auto it = current_.find(id);
    ASSERT_TRUE(it != current_.end() && it->second.has_value())
        << "served id " << id << " is unknown or revoked";
    const CookieDescriptor& d = *it->second;
    EXPECT_EQ(view.cookie_id(), id);
    Cookie probe;
    probe.cookie_id = id;
    probe.uuid = crypto::Uuid::generate(rng_);
    EXPECT_EQ(probe.compute_tag(view.schedule()),
              probe.compute_tag(util::BytesView(d.key)))
        << "id " << id << " served a schedule of an old key";
    EXPECT_EQ(view.service_data(), d.service_data);
    Attributes shared = d.attributes;
    shared.expires_at.reset();
    EXPECT_EQ(view.attributes(), shared);
  }

  void check_result(const VerifyResult& result, CookieId id,
                    const util::Bytes& key) {
    EXPECT_EQ(result.status, expected(id, key)) << "id " << id;
    EXPECT_EQ(result.descriptor.has_value(), result.ok());
    if (result.descriptor.has_value()) check_view(*result.descriptor, id);
  }

  void verify_one(CookieId id) {
    util::Bytes key;
    const Cookie cookie = mint(id, key);
    const VerifyResult result = verifier_.verify(cookie);
    // A local edit of another id may grow the own table's profile
    // vector under the view; the view must still read its profile.
    if (own_ && rng_.next_u64(2) == 0) edit(id % kIds + 1, Change::kProfile);
    check_result(result, id, key);
  }

  /// One burst over several ids: entries evicted mid-burst must still
  /// read intact until the burst ends.
  void verify_burst() {
    const size_t n = 2 + rng_.next_u64(6);
    std::vector<Cookie> cookies;
    std::vector<util::Bytes> keys(n);
    for (size_t i = 0; i < n; ++i) {
      cookies.push_back(mint(1 + rng_.next_u64(kIds), keys[i]));
    }
    std::vector<VerifyResult> results(n);
    verifier_.verify_batch(cookies, results);
    for (size_t i = 0; i < n; ++i) {
      check_result(results[i], cookies[i].cookie_id, keys[i]);
    }
  }

  void find(CookieId id) {
    const DescriptorView* view = verifier_.find(id);
    const auto it = current_.find(id);
    // An expired descriptor is not live: find() serves no ack key.
    const bool live = it != current_.end() && it->second.has_value() &&
                      !it->second->expired(clock_.now());
    ASSERT_EQ(view != nullptr, live) << "id " << id;
    if (view != nullptr) check_view(*view, id);
  }

  const bool own_;
  util::Rng rng_;
  util::ManualClock clock_;
  CookieVerifier verifier_;
  Table staged_;   // edits so far
  Table current_;  // what the verifier's current table holds
  std::map<CookieId, util::Bytes> old_keys_;
  DescriptorStore store_;
  std::unique_ptr<DescriptorTable> table_;
  uint64_t epoch_ = 0;
};

TEST(HotTierModel, ServesOnlyTheCurrentTable) {
  for (const bool own_table : {false, true}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(std::string(own_table ? "own" : "published") +
                   " table, seed " + std::to_string(seed));
      HotTierModel(own_table, seed).run(400);
    }
  }
}

}  // namespace
}  // namespace nnn::cookies
