// Immutable descriptor tables for the epoch-swapped verify hot path.
//
// The control plane builds a complete DescriptorTable off the hot
// path, publishes it through controlplane::TablePublisher with an
// atomic pointer swap, and reclaims the previous table only after
// every reader passed a quiescent point. Once published a table is
// never mutated (the publisher stamps `epoch` exactly once, before the
// table becomes visible to any reader), so any number of worker
// threads may read it with no locks in verify_batch. The one table
// edited in place is never published: the one a CookieVerifier owns
// for its local add_descriptor/revoke/remove, which bumps its epoch on
// every edit.
//
// Contents are a cookies::DescriptorStore snapshot: one 64-byte
// Record per descriptor (key inline, revocation tombstone, expiry)
// behind an open-addressing id index, with service profiles interned.
// The table carries no per-entry HMAC key schedules — midstates are a
// verifier-local working set (cookies::HotTier) sized to the hot
// descriptors, not to the table.
#pragma once

#include <cstdint>
#include <utility>

#include "cookies/descriptor.h"
#include "cookies/descriptor_store.h"

namespace nnn::cookies {

class DescriptorTable {
 public:
  DescriptorTable() = default;
  DescriptorTable(uint64_t version, DescriptorStore store)
      : version_(version), store_(std::move(store)) {}

  /// The compact record for `id` (live or tombstoned), or nullptr.
  const DescriptorStore::Record* find(CookieId id) const {
    return store_.find(id);
  }

  const DescriptorStore& store() const { return store_; }
  /// In-place edits, for an unpublished table only (see above).
  DescriptorStore& store() { return store_; }

  size_t size() const { return store_.size(); }

  /// DescriptorLog version this table reflects.
  uint64_t version() const { return version_; }

  /// Publish sequence number, stamped by the TablePublisher before the
  /// swap makes the table visible.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  uint64_t version_ = 0;
  uint64_t epoch_ = 0;
  DescriptorStore store_;
};

}  // namespace nnn::cookies
