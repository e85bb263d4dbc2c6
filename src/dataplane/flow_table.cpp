#include "dataplane/flow_table.h"

namespace nnn::dataplane {

namespace {

/// Amortize idle expiry: run a sweep every this many touches.
constexpr uint64_t kExpirySweepInterval = 8192;

constexpr Error kOverloadError{ErrorDomain::kFlow, ErrorCode::kOverload,
                               "flow table at max_flows"};
constexpr Error kUnknownFlowError{ErrorDomain::kFlow, ErrorCode::kUnknownId,
                                  "flow unknown"};

}  // namespace

FlowTable::FlowTable(uint32_t sniff_window, util::Timestamp idle_timeout,
                     size_t max_flows)
    : sniff_window_(sniff_window),
      idle_timeout_(idle_timeout),
      max_flows_(max_flows),
      aliases_(quic::CidAliasConfig{.max_connections = 0}) {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) {
        stats_.collect(builder);
        builder.gauge("nnn_flows_active", "Flow-table entries resident",
                      {}, active_flows_.value());
      });
}

net::FlowKey FlowTable::canonical(const net::FlowKey& key) const {
  if (!key.is_cid()) return key;
  const uint64_t canon = aliases_.resolve(key.cid());
  return canon == key.cid() ? key : net::FlowKey::from_cid(canon);
}

std::optional<uint32_t> FlowTable::obtain(const net::FlowKey& key,
                                          bool& created,
                                          util::Timestamp now) {
  if (max_flows_ != 0 && index_.size() >= max_flows_) {
    // At capacity: the insert below may be a pure find (fine) or a
    // create (blocked). Probe first so finds never pay for fullness.
    if (index_.find(hash_key(key), index_matcher(key)) == nullptr) {
      // One forced sweep — idle flows should lose to live traffic
      // before any packet is refused an entry.
      expire_idle(now);
      if (index_.size() >= max_flows_) {
        created = false;
        return std::nullopt;
      }
    }
  }
  const auto [slot_entry, inserted] = index_.find_or_insert(
      hash_key(key), index_matcher(key), index_hasher(), [&] {
        uint32_t slot;
        if (!free_.empty()) {
          slot = free_.back();
          free_.pop_back();
        } else {
          pool_.emplace_back();
          slot = static_cast<uint32_t>(pool_.size() - 1);
        }
        Slot& s = pool_[slot];
        s.key = key;
        s.entry = FlowEntry{};
        s.live = true;
        return slot;
      });
  created = inserted;
  return *slot_entry;
}

Expected<FlowTable::Binding> FlowTable::bind(const net::FlowKey& key,
                                             uint32_t bytes,
                                             util::Timestamp now) {
  stats_.cell<&FlowTableStats::lookups>().inc();
  if (++touches_since_expiry_ >= kExpirySweepInterval) {
    touches_since_expiry_ = 0;
    expire_idle(now);
  }
  bool created = false;
  const std::optional<uint32_t> slot = obtain(canonical(key), created, now);
  if (!slot) {
    stats_.cell<&FlowTableStats::overloads>().inc();
    return unexpected(kOverloadError);
  }
  FlowEntry& entry = pool_[*slot].entry;
  if (created) {
    stats_.cell<&FlowTableStats::flows_created>().inc();
    active_flows_.set(static_cast<int64_t>(index_.size()));
  }
  ++entry.packets_seen;
  entry.bytes += bytes;
  entry.last_seen = now;
  if (entry.state == FlowState::kSniffing &&
      entry.packets_seen > sniff_window_) {
    entry.state = FlowState::kBestEffort;
  }
  if (entry.state == FlowState::kMapped && entry.mapping_expires != 0 &&
      now >= entry.mapping_expires) {
    // The burst/boost window closed; the flow reverts to best effort
    // (a fresh cookie can re-map it — the sniff window is over, so it
    // would need a new flow, matching how Boost's one-hour expiry
    // behaves for long-lived flows).
    entry.state = FlowState::kBestEffort;
    entry.service_data.clear();
    entry.mapping_expires = 0;
  }
  return Binding{&entry, created};
}

Expected<FlowTable::Binding> FlowTable::map_one(
    const net::FlowKey& key, const std::string& service_data,
    util::Timestamp now, util::Timestamp mapping_expires) {
  bool created = false;
  const std::optional<uint32_t> slot = obtain(canonical(key), created, now);
  if (!slot) {
    stats_.cell<&FlowTableStats::overloads>().inc();
    return unexpected(kOverloadError);
  }
  FlowEntry& entry = pool_[*slot].entry;
  if (created) stats_.cell<&FlowTableStats::flows_created>().inc();
  entry.state = FlowState::kMapped;
  entry.service_data = service_data;
  entry.last_seen = now;
  entry.mapping_expires = mapping_expires;
  return Binding{&entry, created};
}

Expected<FlowTable::Binding> FlowTable::map_flow(
    const net::FlowKey& key, const std::string& service_data,
    util::Timestamp now, bool include_reverse,
    util::Timestamp mapping_expires) {
  Expected<Binding> bound = map_one(key, service_data, now, mapping_expires);
  if (!bound) return bound;
  const net::FlowKey reverse = key.reversed();
  if (include_reverse && !(reverse == key)) {
    // The forward binding stands even if the reverse create is what
    // hits max_flows — fail-open per direction, like the adapters.
    map_one(reverse, service_data, now, mapping_expires);
  }
  active_flows_.set(static_cast<int64_t>(index_.size()));
  return bound;
}

Expected<const FlowEntry*> FlowTable::lookup(const net::FlowKey& key) const {
  const net::FlowKey canon = canonical(key);
  const uint32_t* slot = index_.find(hash_key(canon), index_matcher(canon));
  if (slot == nullptr) return unexpected(kUnknownFlowError);
  return const_cast<const FlowEntry*>(&pool_[*slot].entry);
}

Expected<uint64_t> FlowTable::add_alias(uint64_t fresh_cid,
                                        uint64_t existing_cid) {
  const uint64_t canon = aliases_.resolve(existing_cid);
  // The rotation only links if a live flow is actually keyed on the
  // resolved CID; a marker for a flow never seen (or already expired)
  // must not create alias state nothing owns.
  if (index_.find(hash_key(net::FlowKey::from_cid(canon)),
                  index_matcher(net::FlowKey::from_cid(canon))) == nullptr) {
    return unexpected(kUnknownFlowError);
  }
  // Lazily register the connection on its first rotation; bind() is
  // idempotent for a known canonical.
  aliases_.bind(canon, 0);
  const size_t cids = aliases_.cids();
  const Expected<uint64_t> linked = aliases_.alias(fresh_cid, canon);
  // Count new links only: the middlebox re-links the server's CID on
  // every long header.
  if (aliases_.cids() > cids) {
    stats_.cell<&FlowTableStats::aliases_added>().inc();
  }
  return linked;
}

size_t FlowTable::expire_idle(util::Timestamp now) {
  const util::Timestamp cutoff = now - idle_timeout_;
  size_t evicted = 0;
  for (uint32_t slot = 0; slot < pool_.size(); ++slot) {
    Slot& s = pool_[slot];
    if (!s.live || s.entry.last_seen >= cutoff) continue;
    index_.erase(hash_key(s.key), index_matcher(s.key));
    if (s.key.is_cid()) {
      // The flow dies with aliases outstanding: drop the whole alias
      // set so no CID keeps resolving to a flow that no longer exists.
      aliases_.evict(s.key.cid());
    }
    s.live = false;
    s.entry.service_data.clear();
    free_.push_back(slot);
    ++evicted;
  }
  stats_.cell<&FlowTableStats::flows_expired>().inc(evicted);
  active_flows_.set(static_cast<int64_t>(index_.size()));
  return evicted;
}

size_t FlowTable::memory_bytes() const {
  size_t bytes = index_.memory_bytes() + pool_.size() * sizeof(Slot) +
                 free_.capacity() * sizeof(uint32_t);
  for (const Slot& s : pool_) bytes += s.entry.service_data.capacity();
  return bytes;
}

}  // namespace nnn::dataplane
