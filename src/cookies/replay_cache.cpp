#include "cookies/replay_cache.h"

#include <algorithm>

namespace nnn::cookies {

ReplayCache::ReplayCache(util::Timestamp horizon, size_t capacity)
    : horizon_(horizon), capacity_(capacity == 0 ? 1 : capacity) {}

bool ReplayCache::insert(const crypto::Uuid& uuid, util::Timestamp now,
                         util::Timestamp dated) {
  // Purge first so an expired copy of `uuid` cannot shadow the
  // duplicate check, and so expiry (not the capacity clamp) reclaims
  // slots when the cache is full of dead entries. The watermark gate
  // inside purge() makes this free when nothing can have expired.
  purge(now);
  const uint64_t hash = hash_of(uuid);
  uint32_t probes = 0;
  const uint32_t* existing = index_.find(
      hash, [&](const uint32_t& h) { return pool_[h].uuid == uuid; },
      &probes);
  sample_probe(probes);
  if (existing != nullptr) return false;
  while (index_.size() >= capacity_) {
    // Capacity clamp: evict oldest-first. Only reachable under a
    // unique-uuid flood; counted so operators can see it happened.
    evict_oldest();
    ++capacity_evictions_;
  }
  if (!wheel_.ready()) {
    // Expiries reach two horizons ahead and a watermark-gated cursor
    // lags up to two behind; a two-horizon tick keeps both inside one
    // revolution.
    wheel_.init(state::ExpiryWheel::tick_for(2 * horizon_), kWheelSlots,
                now);
  } else if (index_.empty()) {
    // A drained wheel's cursor only moves on purge walks, and those
    // stop once nothing is left; re-seat it so this entry lands within
    // one revolution.
    wheel_.reseat(now);
  }
  const uint32_t handle = alloc_entry();
  const util::Timestamp from = std::clamp(dated, now, now + horizon_);
  pool_[handle] = Entry{uuid, from + horizon_, state::ExpiryWheel::kNil};
  index_.find_or_insert(
      hash, [](const uint32_t&) { return false; },
      [this](const uint32_t& h) { return hash_of(pool_[h].uuid); },
      [&] { return handle; });
  wheel_.schedule(handle, pool_[handle].expires, wheel_next());
  if (pool_[handle].expires < watermark_) {
    watermark_ = pool_[handle].expires;
  }
  return true;
}

bool ReplayCache::contains(const crypto::Uuid& uuid) const {
  return index_.find(hash_of(uuid), [&](const uint32_t& h) {
           return pool_[h].uuid == uuid;
         }) != nullptr;
}

void ReplayCache::purge(util::Timestamp now) {
  // The watermark is the exact minimum outstanding expiry: before it,
  // no entry can be due and the wheel is not touched at all.
  if (now < watermark_ || !wheel_.ready()) return;
  ++purge_scans_;
  const auto result = wheel_.advance(
      now, wheel_next(),
      [this](uint32_t h) { return pool_[h].expires; },
      [this](uint32_t h) { erase_handle(h); });
  watermark_ = result.next_due_bound;
}

size_t ReplayCache::memory_bytes() const {
  return pool_.capacity() * sizeof(Entry) +
         free_.capacity() * sizeof(uint32_t) + index_.memory_bytes() +
         wheel_.memory_bytes();
}

state::ProbeStats ReplayCache::probe_stats(size_t max_samples) const {
  return index_.probe_stats(
      [this](const uint32_t& h) { return hash_of(pool_[h].uuid); },
      max_samples);
}

uint32_t ReplayCache::alloc_entry() {
  if (!free_.empty()) {
    const uint32_t handle = free_.back();
    free_.pop_back();
    return handle;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void ReplayCache::evict_oldest() {
  const uint32_t handle = wheel_.pop_front(wheel_next());
  // Look ahead along the wheel's front chain: at the clamp every
  // insert evicts, and an eviction waits on the victim's index group
  // and then its pool entry. Ask now for the next victim's group (its
  // entry came in at the previous eviction) and the pool entry of the
  // victim after it.
  const uint32_t next = wheel_.front();
  if (next != state::ExpiryWheel::kNil) {
    const Entry& entry = pool_[next];
    index_.prefetch(hash_of(entry.uuid));
    if (entry.next != state::ExpiryWheel::kNil) {
      state::prefetch_line(&pool_[entry.next]);
    }
  }
  erase_handle(handle);
}

void ReplayCache::erase_handle(uint32_t handle) {
  index_.erase(hash_of(pool_[handle].uuid),
               [&](const uint32_t& h) { return h == handle; });
  free_.push_back(handle);
}

}  // namespace nnn::cookies
