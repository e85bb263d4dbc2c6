#include "cookies/verifier.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "crypto/constant_time.h"

namespace nnn::cookies {

#ifndef NDEBUG
CookieVerifier::WriterCheck::WriterCheck(const CookieVerifier& v) : v_(&v) {
  std::thread::id expected{};
  const std::thread::id self = std::this_thread::get_id();
  outermost_ = v.writer_.compare_exchange_strong(
      expected, self, std::memory_order_acq_rel);
  // Not outermost is fine only when *this thread* already holds the
  // verifier (verify_wire -> verify). Another thread inside it is the
  // single-writer violation the header documents.
  assert((outermost_ || expected == self) &&
         "CookieVerifier single-writer contract violated: two threads "
         "are inside mutating/verifying members at once");
}

CookieVerifier::WriterCheck::~WriterCheck() {
  if (outermost_) {
    v_->writer_.store(std::thread::id{}, std::memory_order_release);
  }
}
#endif

CookieVerifier::CookieVerifier(const util::Clock& clock, util::Timestamp nct)
    : clock_(clock), nct_(nct), replays_(nct) {
  hot_.set_probe_histogram(&probe_len_);
  replays_.set_probe_histogram(&probe_len_);
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { collect(builder); });
}

void CookieVerifier::collect(telemetry::SampleBuilder& builder) const {
  status_.collect(builder, "nnn_verify_total",
                  "Cookie verification outcomes by status",
                  [](VerifyStatus s) { return to_string(s); });
  builder.gauge("nnn_verifier_descriptors",
                "Cookie descriptors currently installed", {},
                descriptors_.value());
  builder.histogram("nnn_verify_batch_nanos",
                    "verify_batch wall time per burst in nanoseconds", {},
                    batch_nanos_);
  builder.gauge("nnn_state_hot_midstates",
                "Hot-tier entries resident with HMAC midstates", {},
                hot_resident_.value());
  builder.counter("nnn_state_rehydrations_total",
                  "Key-schedule rebuilds for cold or re-keyed descriptors",
                  {}, hot_rehydrations_.value());
  builder.counter("nnn_state_hot_evictions_total",
                  "Hot-tier CLOCK evictions", {}, hot_evictions_.value());
  builder.gauge("nnn_state_replay_entries",
                "Outstanding uuids in the verifier's replay cache", {},
                replay_entries_.value());
  builder.gauge("nnn_state_replay_wheel_occupied",
                "Non-empty expiry-wheel slots in the verifier's replay cache",
                {}, replay_wheel_occupied_.value());
  builder.counter("nnn_state_replay_capacity_evictions_total",
                  "Replay entries evicted early because the cache was full",
                  {}, replay_capacity_evictions_.value());
  builder.histogram("nnn_state_probe_len",
                    "Sampled open-addressing probe lengths (group steps)",
                    {}, probe_len_);
}

void CookieVerifier::sync_state_metrics() {
  hot_resident_.set(static_cast<int64_t>(hot_.resident()));
  hot_rehydrations_.set(hot_.rehydrations());
  hot_evictions_.set(hot_.evictions());
  replay_entries_.set(static_cast<int64_t>(replays_.size()));
  replay_wheel_occupied_.set(
      static_cast<int64_t>(replays_.wheel_occupied_slots()));
  replay_capacity_evictions_.set(replays_.capacity_evictions());
}

void CookieVerifier::edited() {
  own_.set_epoch(own_.epoch() + 1);
  descriptors_.set(static_cast<int64_t>(descriptor_count()));
}

void CookieVerifier::add_descriptor(const CookieDescriptor& descriptor) {
  const WriterCheck check(*this);
  own_.store().upsert(descriptor);
  edited();
}

void CookieVerifier::set_external_table(const DescriptorTable* table) {
  const WriterCheck check(*this);
  // nullptr: no table yet, so nothing is known.
  static const DescriptorTable kNoTable;
  if (table_ == &own_) hot_.clear();  // see the header: epochs collide
  table_ = table != nullptr ? table : &kNoTable;
  descriptors_.set(static_cast<int64_t>(descriptor_count()));
  sync_state_metrics();
}

void CookieVerifier::configure_external_replay(size_t capacity) {
  const WriterCheck check(*this);
  replays_ = ReplayCache(nct_, capacity);
  replays_.set_probe_histogram(&probe_len_);
}

bool CookieVerifier::revoke(CookieId id) {
  const WriterCheck check(*this);
  const bool known = own_.find(id) != nullptr;
  own_.store().revoke(id);  // tombstones an unknown id too
  edited();
  return known;
}

bool CookieVerifier::remove(CookieId id) {
  const WriterCheck check(*this);
  const bool removed = own_.store().erase(id);
  edited();
  return removed;
}

bool CookieVerifier::knows(CookieId id) const {
  return table_->find(id) != nullptr;
}

const DescriptorView* CookieVerifier::find(CookieId id) const {
  const WriterCheck check(*this);
  Resolved match;
  if (!resolve(id, match) || match.revoked ||
      match.entry->expired(clock_.now())) {
    return nullptr;
  }
  return &found_.emplace(*match.entry, table_->store());
}

bool CookieVerifier::resolve(CookieId id, Resolved& out) const {
  const uint64_t epoch = table_->epoch();
  // Fast path: a hot entry stamped with the current epoch is known
  // valid (revoked records are never admitted, and a swap or a local
  // edit bumps the epoch, forcing re-resolution below).
  if (const HotTier::Entry* hot = hot_.lookup(id, epoch)) {
    out = Resolved{hot, false};
    return true;
  }
  const DescriptorStore::Record* record = table_->find(id);
  if (record == nullptr) return false;
  if (record->revoked) {
    // Tombstones stay cold: verify_resolved checks `revoked` before
    // touching the entry, so it stays null.
    out = Resolved{nullptr, true};
    return true;
  }
  out = Resolved{hot_.admit(*record, table_->store(), epoch), false};
  return true;
}

VerifyResult CookieVerifier::verify_resolved(const Resolved& match,
                                             const Cookie& cookie,
                                             util::Timestamp now) {
  if (match.revoked) {
    status_.inc(VerifyStatus::kDescriptorRevoked);
    return VerifyResult{VerifyStatus::kDescriptorRevoked, std::nullopt};
  }
  if (match.entry->expired(now)) {
    status_.inc(VerifyStatus::kDescriptorExpired);
    return VerifyResult{VerifyStatus::kDescriptorExpired, std::nullopt};
  }
  // (ii) MAC check, constant-time over the tag, resuming from the
  // entry's precomputed ipad/opad midstates. Run before the
  // timestamp/replay checks so an attacker cannot probe table state
  // with unsigned cookies.
  const crypto::CookieTag expected = cookie.compute_tag(match.entry->schedule);
  if (!crypto::constant_time_equal(
          util::BytesView(expected.data(), expected.size()),
          util::BytesView(cookie.signature.data(),
                          cookie.signature.size()))) {
    status_.inc(VerifyStatus::kBadSignature);
    return VerifyResult{VerifyStatus::kBadSignature, std::nullopt};
  }
  // (iii) Listing 3's abs(cookie.timestamp - now) > NCT, with the
  // cookie's whole second against `now` at full resolution: whole
  // seconds on both sides would let a cookie pass until (ts + NCT + 1) s,
  // after the replay cache forgets it. A date past what a Timestamp can
  // hold is stale at any `now`.
  constexpr CookieTime kLatest =
      std::numeric_limits<util::Timestamp>::max() / 2 / util::kSecond;
  const util::Timestamp dated =
      static_cast<util::Timestamp>(std::min(cookie.timestamp, kLatest)) *
      util::kSecond;
  if (std::abs(now - dated) > nct_) {
    status_.inc(VerifyStatus::kStaleTimestamp);
    return VerifyResult{VerifyStatus::kStaleTimestamp, std::nullopt};
  }
  // (iv) use-once, remembered until the cookie goes stale: NCT past
  // the later of now and its date.
  if (!replays_.insert(cookie.uuid, now, dated)) {
    status_.inc(VerifyStatus::kReplayed);
    return VerifyResult{VerifyStatus::kReplayed, std::nullopt};
  }
  status_.inc(VerifyStatus::kOk);
  return VerifyResult{VerifyStatus::kOk,
                      DescriptorView(*match.entry, table_->store())};
}

VerifyResult CookieVerifier::verify(const Cookie& cookie) {
  const WriterCheck check(*this);
  hot_.begin_burst();
  Resolved match;
  if (!resolve(cookie.cookie_id, match)) {
    status_.inc(VerifyStatus::kUnknownId);
    return VerifyResult{VerifyStatus::kUnknownId, std::nullopt};
  }
  const VerifyResult result = verify_resolved(match, cookie, clock_.now());
  sync_state_metrics();
  return result;
}

void CookieVerifier::verify_batch(std::span<const Cookie> cookies,
                                  std::span<VerifyResult> results) {
  assert(results.size() >= cookies.size());
  const WriterCheck check(*this);
  const size_t n = cookies.size();
  if (n == 0) return;
  hot_.begin_burst();
  // Batch-level timing: two clock reads per burst, never per cookie.
  // A 32-cookie burst is >=10 us of MAC work, so the ~86 ns timer pair
  // stays under 1% there; smaller bursts (a trickling producer can
  // hand down a single cookie) are sampled 1-in-32 so the reads can
  // never dominate.
  const telemetry::ScopedTimer timer(batch_nanos_,
                                     n >= 32 || burst_sample_.next());
  // One clock read for the burst (see header for why this is sound).
  const util::Timestamp now = clock_.now();
  // Visit in descriptor-id order, stable within each id: one table
  // lookup per run of equal ids, and the entry's key schedule stays
  // cache-hot across the run. Stability preserves the sequential
  // replay semantics for duplicate uuids under one descriptor.
  batch_order_.resize(n);
  for (uint32_t i = 0; i < n; ++i) batch_order_[i] = i;
  std::stable_sort(batch_order_.begin(), batch_order_.end(),
                   [&cookies](uint32_t a, uint32_t b) {
                     return cookies[a].cookie_id < cookies[b].cookie_id;
                   });

  // Stage the burst's cache misses so they overlap instead of queueing
  // (each is a hint; nothing below depends on them): every cookie's
  // replay-index group and every id's hot-tier group.
  for (size_t k = 0; k < n; ++k) {
    const Cookie& cookie = cookies[batch_order_[k]];
    replays_.prefetch(cookie.uuid);
    if (k == 0 || cookie.cookie_id != cookies[batch_order_[k - 1]].cookie_id) {
      hot_.prefetch(cookie.cookie_id);
    }
  }

  Resolved match;
  bool have_match = false;
  CookieId current_id = 0;
  bool have_id = false;
  for (const uint32_t idx : batch_order_) {
    const Cookie& cookie = cookies[idx];
    if (!have_id || cookie.cookie_id != current_id) {
      current_id = cookie.cookie_id;
      have_id = true;
      have_match = resolve(current_id, match);
    }
    if (!have_match) {
      status_.inc(VerifyStatus::kUnknownId);
      results[idx] = VerifyResult{VerifyStatus::kUnknownId, std::nullopt};
      continue;
    }
    results[idx] = verify_resolved(match, cookie, now);
  }
  sync_state_metrics();
}

VerifyResult CookieVerifier::verify_wire(util::BytesView wire) {
  const WriterCheck check(*this);
  const auto cookie = Cookie::decode(wire);
  if (!cookie) {
    status_.inc(VerifyStatus::kMalformed);
    return VerifyResult{VerifyStatus::kMalformed, std::nullopt};
  }
  return verify(*cookie);
}

VerifyResult CookieVerifier::verify_text(std::string_view text) {
  const WriterCheck check(*this);
  const auto cookie = Cookie::decode_text(text);
  if (!cookie) {
    status_.inc(VerifyStatus::kMalformed);
    return VerifyResult{VerifyStatus::kMalformed, std::nullopt};
  }
  return verify(*cookie);
}

void CookieVerifier::reset_stats() {
  const WriterCheck check(*this);
  status_.reset();
  batch_nanos_.reset();
}

}  // namespace nnn::cookies
