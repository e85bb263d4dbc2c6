// Hot/cold descriptor tiering: midstates only for descriptors in use.
//
// Precomputing the HMAC key schedule (ipad/opad SHA-256 midstates,
// 80 bytes) per table entry was the right call at household scale —
// every descriptor is hot. At a million descriptors it is ~100 MB of
// midstates for a working set that heavy-tailed traffic keeps at a few
// percent of the table, and it puts the build cost of two SHA-256
// compressions per entry on every table publish.
//
// The HotTier is a verifier-local cache over the published table's
// cold records: descriptors actually hit get a 144-byte resident entry
// holding the ready-to-resume key schedule, the expiry, a copy of the
// record's inline key and the index of its interned profile (service
// data and attributes stay in the table, shared); everything else
// stays a 64-byte cold Record. A cold hit "rehydrates" — two SHA-256
// compressions off the record's raw key — and CLOCK (second-chance)
// eviction keeps residency inside a fixed budget, so the sliding
// window of hot descriptors sizes memory, not the table.
//
// Correctness across table swaps: entries are stamped with the table
// epoch they were validated against. A lookup only trusts an entry
// whose stamp matches the current table's epoch; on mismatch the
// caller re-resolves from the table and admit() revalidates — expiry
// and profile re-read; same key bytes, keep the schedule; rotated or
// spilled (> 32 B) key, rebuild it — so a swap can revoke, expire, or
// re-key a hot descriptor and the tier can never serve stale crypto
// state. The profile is an index, not a pointer: a local
// add_descriptor can grow the own table's profile vector. Eviction
// recycles slots through a limbo list drained at burst boundaries, so
// entries referenced by this burst's VerifyResults stay valid until
// the next burst.
//
// Threading: owned by one CookieVerifier and covered by its
// single-writer contract; nothing here is shared or atomic.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cookies/descriptor_store.h"
#include "crypto/hmac.h"
#include "state/flat_table.h"
#include "telemetry/metrics.h"

namespace nnn::cookies {

class HotTier {
 public:
  /// Resident-entry budget: ~64K hot descriptors is a generous
  /// working set for one worker (at ~150 B apiece with the index,
  /// ~10 MB).
  static constexpr size_t kDefaultBudget = 1 << 16;
  /// Entry::key_len of a key that spilled out of the record (longer
  /// than DescriptorStore::kInlineKeyBytes): no inline copy, so a
  /// revalidation always rebuilds its schedule.
  static constexpr uint8_t kSpilledKey = 0xFF;

  struct Entry {
    CookieId id = 0;
    /// Table epoch this entry was last validated against.
    uint64_t epoch = 0;
    /// The record's expiry; valid only when has_expiry.
    util::Timestamp expires_at = 0;
    /// The record's interned profile in the current table.
    uint32_t profile = DescriptorStore::kNoProfile;
    uint8_t key_len = 0;  // of `key`, or kSpilledKey
    bool has_expiry = false;
    bool referenced = false;  // CLOCK second-chance bit
    bool live = false;
    crypto::HmacKeySchedule schedule;
    /// The key `schedule` was built from (revalidation compares it).
    uint8_t key[DescriptorStore::kInlineKeyBytes] = {};

    bool expired(util::Timestamp now) const {
      return has_expiry && now >= expires_at;
    }
  };

  explicit HotTier(size_t budget = kDefaultBudget)
      : budget_(budget == 0 ? 1 : budget) {}

  /// Applies to future admissions; residency shrinks toward a smaller
  /// budget through normal eviction.
  void set_budget(size_t budget) { budget_ = budget == 0 ? 1 : budget; }
  size_t budget() const { return budget_; }
  size_t resident() const { return live_count_; }
  uint64_t hits() const { return hits_; }
  /// Key-schedule builds (cold hits + re-keyed revalidations).
  uint64_t rehydrations() const { return rehydrations_; }
  uint64_t evictions() const { return evictions_; }

  /// Recycle slots evicted during the previous burst. Call at the top
  /// of each verify burst; entry pointers returned before the call may
  /// afterwards be overwritten.
  void begin_burst();

  /// Fast path: the entry for `id` validated against table epoch
  /// `epoch`, or nullptr when absent/stale (caller re-resolves).
  const Entry* lookup(CookieId id, uint64_t epoch);

  /// lookup() without the side effects (no hit count, no CLOCK
  /// reference bit, no probe sample) — tests and introspection.
  const Entry* peek(CookieId id, uint64_t epoch) const {
    const uint32_t* slot = index_.find(
        hash_id(id), [this, id](const uint32_t& s) {
          return pool_[s].id == id && pool_[s].live;
        });
    if (slot == nullptr) return nullptr;
    const Entry& entry = pool_[*slot];
    return entry.epoch == epoch ? &entry : nullptr;
  }

  /// Prefetch the index group lookup(id) probes first.
  void prefetch(CookieId id) const { index_.prefetch(hash_id(id)); }

  /// Slow path: admit or revalidate `record` (must not be revoked)
  /// against `store`, stamping `epoch`.
  const Entry* admit(const DescriptorStore::Record& record,
                     const DescriptorStore& store, uint64_t epoch);

  void clear();
  size_t memory_bytes() const;
  /// Sampled (1 in 64) lookup probe lengths; `hist` must outlive the
  /// tier.
  void set_probe_histogram(telemetry::Histogram* hist) {
    probe_hist_ = hist;
  }

 private:
  static uint64_t hash_id(CookieId id) {
    return state::mix_hash(static_cast<uint64_t>(id));
  }
  auto index_matcher(CookieId id) {
    return [this, id](const uint32_t& slot) {
      return pool_[slot].id == id && pool_[slot].live;
    };
  }
  auto index_hasher() {
    return [this](const uint32_t& slot) { return hash_id(pool_[slot].id); };
  }

  uint32_t acquire_slot();
  void evict_one();
  /// Build `entry`'s schedule from the record's key and keep the key's
  /// inline bytes beside it.
  void rekey(Entry& entry, const DescriptorStore::Record& record,
             const DescriptorStore& store);
  void sample_probe(uint32_t probes) {
    if (probe_hist_ != nullptr && (probe_tick_++ & 63u) == 0) {
      probe_hist_->record(probes);
    }
  }

  size_t budget_;
  size_t live_count_ = 0;
  uint64_t hits_ = 0;
  uint64_t rehydrations_ = 0;
  uint64_t evictions_ = 0;
  state::FlatTable<uint32_t> index_;  // pool slot by CookieId
  /// Deque for pointer stability: Entry addresses never move, so the
  /// views in VerifyResults survive pool growth.
  std::deque<Entry> pool_;
  std::vector<uint32_t> free_;
  /// Slots evicted mid-burst; reusable only from the next burst.
  std::vector<uint32_t> limbo_;
  uint32_t clock_hand_ = 0;
  telemetry::Histogram* probe_hist_ = nullptr;
  uint32_t probe_tick_ = 0;
};

}  // namespace nnn::cookies
