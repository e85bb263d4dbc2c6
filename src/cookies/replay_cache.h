// Replay protection (§4.2, match_cookie's is_unique_uuid).
//
// "To verify uniqueness, we keep a list of recently seen cookies
// (within NCT)." This cache remembers uuids for an expiry horizon; a
// uuid past its horizon is always re-insertable (a cookie that old
// fails the timestamp check anyway, so forgetting is safe and bounds
// memory). Steady-state memory is (cookie arrival rate x NCT); a
// flood of unique uuids is additionally clamped by an explicit
// capacity with oldest-first eviction, so an attacker cannot grow the
// cache without bound (the trade-off — an evicted uuid could be
// replayed — only arises under a flood that is itself the anomaly).
//
// ISP-scale internals (src/state): uuids live in a pooled entry array
// indexed by an open-addressing state::FlatTable of u32 handles (one
// flat probe per lookup, no per-entry heap node), and expiry runs
// through a state::ExpiryWheel — entries hash into NCT-bucketed time
// slots, so purging touches only due entries, O(1) amortized. The
// insert path is gated on a next-expiry watermark (the exact minimum
// outstanding expiry): when now is before it, nothing can have
// expired and purge() returns without touching the wheel at all,
// instead of the historical scan-per-insert.
//
// Ownership (§4.6 scale-out): a CookieVerifier owns exactly one
// ReplayCache for all of its descriptors, whichever table it reads, and
// in the threaded runtime each worker owns one verifier. A cache is
// therefore single-threaded state, and use-once is only *locally*
// verifiable; cross-worker soundness requires routing each descriptor's
// cookies to one worker (DispatchPolicy::kDescriptorAffinity). Sharing
// one cache between workers is deliberately unsupported — it would put
// a lock on the per-packet hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/uuid.h"
#include "state/expiry_wheel.h"
#include "state/flat_table.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace nnn::cookies {

class ReplayCache {
 public:
  /// Default entry clamp: at ~40 bytes of uuid+bookkeeping apiece this
  /// is a few tens of MB per cache worst-case, far above any
  /// legitimate (rate x NCT) working set.
  static constexpr size_t kDefaultCapacity = 1 << 20;

  /// Timer-wheel shape: state::ExpiryWheel's shared one (256 slots),
  /// with the tick it gives a two-horizon expiry (a uuid dated ahead is
  /// remembered up to two horizons; see insert()).
  static constexpr size_t kWheelSlots = state::ExpiryWheel::kSlots;

  /// `horizon` is how long a uuid is remembered — the NCT window.
  /// `capacity` clamps the entry count against uuid floods; oldest
  /// entries are evicted first.
  explicit ReplayCache(util::Timestamp horizon,
                       size_t capacity = kDefaultCapacity);

  /// Record `uuid` as seen at `now`, remembered until one horizon past
  /// the later of `now` and `dated`, the instant its cookie is dated. A
  /// cookie dated ahead of now stays fresh until a horizon past its
  /// date, so its uuid must be remembered that long; `dated` more than
  /// one horizon ahead (which the freshness check rejects) counts as
  /// one horizon ahead. Returns false if it was already present (i.e.,
  /// this is a replay), true if newly inserted.
  bool insert(const crypto::Uuid& uuid, util::Timestamp now,
              util::Timestamp dated);
  bool insert(const crypto::Uuid& uuid, util::Timestamp now) {
    return insert(uuid, now, now);
  }

  /// Prefetch the index group insert(uuid) and contains(uuid) probe
  /// first. A hint: a burst asks for every uuid's group before any
  /// probe waits on one.
  void prefetch(const crypto::Uuid& uuid) const {
    index_.prefetch(hash_of(uuid));
  }

  /// Whether `uuid` is currently remembered.
  bool contains(const crypto::Uuid& uuid) const;

  /// Drop entries that expired at or before `now`. insert() calls this
  /// automatically (watermark-gated); exposed for tests and for
  /// idle-time maintenance.
  void purge(util::Timestamp now);

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  util::Timestamp horizon() const { return horizon_; }
  /// Entries evicted by the capacity clamp (not by expiry) — nonzero
  /// means the cache saw a uuid flood and use-once was best-effort.
  uint64_t capacity_evictions() const { return capacity_evictions_; }

  /// Earliest instant at which any entry can expire; ExpiryWheel's
  /// kNever when empty. purge() calls before this are no-ops.
  util::Timestamp watermark() const { return watermark_; }
  /// Number of purge calls that actually advanced the wheel (i.e.,
  /// passed the watermark gate). The regression the watermark fixes is
  /// this growing with every insert.
  uint64_t purge_scans() const { return purge_scans_; }

  /// Wheel occupancy for telemetry (slots holding >= 1 entry).
  size_t wheel_slots() const { return wheel_.slot_count(); }
  size_t wheel_occupied_slots() const { return wheel_.occupied_slots(); }

  /// Bytes held by the entry pool, handle index, and wheel slots.
  size_t memory_bytes() const;
  /// Offline probe-length distribution over the handle index.
  state::ProbeStats probe_stats(size_t max_samples) const;
  /// When set, insert probes are sampled (1 in 64) into `hist`. The
  /// histogram must outlive the cache. A verifier points its one cache
  /// at its nnn_state_probe_len histogram; standalone caches leave it
  /// unset.
  void set_probe_histogram(telemetry::Histogram* hist) {
    probe_hist_ = hist;
  }

 private:
  struct Entry {
    crypto::Uuid uuid;
    util::Timestamp expires = 0;
    uint32_t next = state::ExpiryWheel::kNil;  // wheel chain link
  };

  static uint64_t hash_of(const crypto::Uuid& uuid) {
    return state::mix_hash(std::hash<crypto::Uuid>{}(uuid));
  }
  auto wheel_next() {
    return [this](uint32_t h) -> uint32_t& { return pool_[h].next; };
  }

  uint32_t alloc_entry();
  void evict_oldest();
  void erase_handle(uint32_t handle);
  void sample_probe(uint32_t probes) {
    if (probe_hist_ != nullptr && (probe_tick_++ & 63u) == 0) {
      probe_hist_->record(probes);
    }
  }

  util::Timestamp horizon_;
  size_t capacity_;
  uint64_t capacity_evictions_ = 0;
  uint64_t purge_scans_ = 0;
  util::Timestamp watermark_ = state::ExpiryWheel::kNever;
  std::vector<Entry> pool_;
  std::vector<uint32_t> free_;
  state::FlatTable<uint32_t> index_;  // handle per live uuid
  state::ExpiryWheel wheel_;
  telemetry::Histogram* probe_hist_ = nullptr;
  uint32_t probe_tick_ = 0;
};

}  // namespace nnn::cookies
