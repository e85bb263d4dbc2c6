// Compact descriptor storage for ISP-scale tables.
//
// A full CookieDescriptor is a control-plane object: ~200+ bytes of
// strings, vectors and maps, most of it identical across the millions
// of descriptors a cookie server mints for one service tier. Storing
// it per entry in a hash map of full descriptors, plus a 72-byte HMAC
// key schedule each, blows the per-descriptor memory budget and drags
// cold heap nodes through the verify path.
//
// DescriptorStore splits the descriptor into what the hot path needs
// per id and what can be shared:
//
//   Record (one 64-byte cache line per descriptor): id, the 32-byte
//   HMAC key inline (longer keys spill to a side table), expiry,
//   revocation tombstone flag, and a profile index.
//
//   Profile (interned): service_data + attributes minus expires_at,
//   deduplicated by serialized identity. A million "Boost" descriptors
//   share one profile entry, and a run of them skips the
//   serialization by matching the last profile interned.
//
// HMAC key schedules are deliberately NOT stored per record — that is
// the hot/cold tiering boundary. The verifier keeps midstates only for
// descriptors that are actually hit (cookies::HotTier); a cold hit
// rehydrates from the record's raw key (two SHA-256 compressions).
//
// Records sit in a dense vector (stable order: insertion order, with
// erase doing swap-remove) indexed by a state::FlatTable of u32
// handles keyed on CookieId. Lookup is one flat probe plus one
// cache-line read. The store is a value type: TableMirror and
// runtime::Dataplane mutate a working copy and publish it into an
// immutable DescriptorTable by plain copy.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cookies/descriptor.h"
#include "state/flat_table.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnn::cookies {

class DescriptorStore {
 public:
  static constexpr size_t kInlineKeyBytes = 32;
  static constexpr uint32_t kNoProfile =
      std::numeric_limits<uint32_t>::max();
  static constexpr uint32_t kNoSpill = std::numeric_limits<uint32_t>::max();

  struct Record {
    CookieId id = 0;
    /// Valid only when has_expiry (std::optional would cost 8 bytes).
    util::Timestamp expires_at = 0;
    uint32_t profile = kNoProfile;
    uint32_t spill = kNoSpill;
    uint8_t key[kInlineKeyBytes] = {};
    uint8_t key_len = 0;  // inline length; spilled keys keep 0 here
    bool revoked = false;
    bool has_expiry = false;

    bool expired(util::Timestamp now) const {
      return has_expiry && now >= expires_at;
    }
  };

  /// Interned service data and attributes, shared by every record
  /// that references it. expires_at is always nullopt here: expiry
  /// lives per record.
  struct Profile {
    std::string service_data;
    Attributes attributes;
  };

  /// Insert or replace the descriptor for its id; clears any
  /// revocation tombstone.
  void upsert(const CookieDescriptor& descriptor);

  /// Mark `id` revoked, inserting a bare tombstone if unknown.
  void revoke(CookieId id);

  /// Remove entirely (descriptor and tombstone). Returns whether the
  /// id was present.
  bool erase(CookieId id);

  const Record* find(CookieId id) const;

  /// The record's HMAC key bytes (inline or spilled).
  util::BytesView key_of(const Record& record) const;

  /// A live record's interned profile (`record.profile`). The index
  /// stays valid until clear(); the reference only until the next
  /// upsert, which may grow the profile vector.
  const Profile& profile(uint32_t index) const { return profiles_[index]; }

  /// Reconstruct the full control-plane descriptor (TableMirror::live
  /// snapshots). Exact round trip of what upsert saw.
  CookieDescriptor materialize(const Record& record) const;

  /// Visit records in insertion order (erase perturbs order by
  /// swap-remove, deterministically).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Record& record : records_) fn(record);
  }

  void clear();
  void reserve(size_t n);
  size_t size() const { return records_.size(); }
  size_t profile_count() const { return profiles_.size(); }

  /// Bytes held by records, index, interned profiles, and spill keys.
  size_t memory_bytes() const;
  state::ProbeStats probe_stats(size_t max_samples) const;
  /// Index occupancy in percent (live entries over slots; max ~87).
  unsigned index_load_pct() const {
    return index_.slot_count() == 0
               ? 0
               : static_cast<unsigned>(index_.size() * 100 /
                                       index_.slot_count());
  }

 private:
  static uint64_t hash_id(CookieId id) {
    return state::mix_hash(static_cast<uint64_t>(id));
  }
  auto index_matcher(CookieId id) const {
    return [this, id](const uint32_t& slot) {
      return records_[slot].id == id;
    };
  }
  auto index_hasher() const {
    return [this](const uint32_t& slot) {
      return hash_id(records_[slot].id);
    };
  }

  Record* find_mut(CookieId id);
  Record& insert_record(CookieId id);
  void set_key(Record& record, util::BytesView key);
  void release_spill(Record& record);
  uint32_t intern_profile(const CookieDescriptor& descriptor);

  std::vector<Record> records_;
  state::FlatTable<uint32_t> index_;  // record slot by CookieId
  std::vector<Profile> profiles_;
  /// Serialized profile identity -> profiles_ slot. Never shrinks: a
  /// profile outlives the records that reference it (the dedup set is
  /// tiny next to the record array).
  state::FlatMap<std::string, uint32_t> intern_;
  /// The profile the previous upsert interned (intern_profile's fast
  /// path).
  uint32_t last_profile_ = kNoProfile;
  std::vector<util::Bytes> spill_keys_;
  std::vector<uint32_t> spill_free_;
};

}  // namespace nnn::cookies
