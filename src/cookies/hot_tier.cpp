#include "cookies/hot_tier.h"

#include <cassert>
#include <cstring>

namespace nnn::cookies {

// The header comment quotes this size; keep the two in step.
static_assert(sizeof(HotTier::Entry) == 144);

void HotTier::begin_burst() {
  if (limbo_.empty()) return;
  free_.insert(free_.end(), limbo_.begin(), limbo_.end());
  limbo_.clear();
}

const HotTier::Entry* HotTier::lookup(CookieId id, uint64_t epoch) {
  uint32_t probes = 0;
  const uint32_t* slot =
      index_.find(hash_id(id), index_matcher(id), &probes);
  sample_probe(probes);
  if (slot == nullptr) return nullptr;
  Entry& entry = pool_[*slot];
  if (entry.epoch != epoch) return nullptr;  // table swapped: revalidate
  entry.referenced = true;
  ++hits_;
  return &entry;
}

const HotTier::Entry* HotTier::admit(const DescriptorStore::Record& record,
                                     const DescriptorStore& store,
                                     uint64_t epoch) {
  assert(!record.revoked && "revoked records are never admitted");
  Entry* entry;
  if (const uint32_t* found = index_.find(hash_id(record.id),
                                         index_matcher(record.id))) {
    // Present but stamped with an older epoch: revalidate. Expiry and
    // profile are re-read below (either may have changed); the
    // schedule survives unless the key bytes did. A spilled key has no
    // inline copy to compare, so it is always rebuilt.
    entry = &pool_[*found];
    const bool same_key =
        record.spill == DescriptorStore::kNoSpill &&
        entry->key_len == record.key_len &&
        std::memcmp(entry->key, record.key, record.key_len) == 0;
    if (!same_key) rekey(*entry, record, store);
  } else {
    if (live_count_ >= budget_) evict_one();
    const uint32_t slot = acquire_slot();
    entry = &pool_[slot];
    entry->id = record.id;
    entry->live = true;
    ++live_count_;
    index_.find_or_insert(
        hash_id(record.id), [](const uint32_t&) { return false; },
        index_hasher(), [&] { return slot; });
    rekey(*entry, record, store);
  }
  entry->profile = record.profile;
  entry->has_expiry = record.has_expiry;
  entry->expires_at = record.expires_at;
  entry->epoch = epoch;
  entry->referenced = true;
  return entry;
}

void HotTier::rekey(Entry& entry, const DescriptorStore::Record& record,
                    const DescriptorStore& store) {
  entry.schedule = crypto::HmacKeySchedule{store.key_of(record)};
  if (record.spill == DescriptorStore::kNoSpill) {
    std::memcpy(entry.key, record.key, record.key_len);
    entry.key_len = record.key_len;
  } else {
    entry.key_len = kSpilledKey;
  }
  ++rehydrations_;
}

void HotTier::clear() {
  index_.clear();
  pool_.clear();
  free_.clear();
  limbo_.clear();
  live_count_ = 0;
  clock_hand_ = 0;
}

size_t HotTier::memory_bytes() const {
  return pool_.size() * sizeof(Entry) + index_.memory_bytes() +
         (free_.capacity() + limbo_.capacity()) * sizeof(uint32_t);
}

uint32_t HotTier::acquire_slot() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  // Mid-burst evictions park slots in limbo, so the pool can crest the
  // budget by at most one burst's distinct admissions; begin_burst
  // folds limbo back into the free list.
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void HotTier::evict_one() {
  assert(live_count_ > 0);
  // CLOCK: first lap strips referenced bits, second lap must find a
  // victim.
  for (;;) {
    clock_hand_ =
        (clock_hand_ + 1) % static_cast<uint32_t>(pool_.size());
    Entry& entry = pool_[clock_hand_];
    if (!entry.live) continue;
    if (entry.referenced) {
      entry.referenced = false;
      continue;
    }
    index_.erase(hash_id(entry.id), index_matcher(entry.id));
    entry.live = false;
    limbo_.push_back(clock_hand_);
    --live_count_;
    ++evictions_;
    return;
  }
}

}  // namespace nnn::cookies
