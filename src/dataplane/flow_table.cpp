#include "dataplane/flow_table.h"

namespace nnn::dataplane {

namespace {

constexpr Error kUnknownFlowError{ErrorDomain::kFlow, ErrorCode::kUnknownId,
                                  "flow unknown"};

}  // namespace

FlowTable::FlowTable(uint32_t sniff_window, util::Timestamp idle_timeout)
    : sniff_window_(sniff_window),
      idle_timeout_(idle_timeout),
      aliases_(quic::CidAliasConfig{.max_connections = 0}) {
  // Seated at 0; the first create reseats the drained wheel at its
  // own time.
  wheel_.init(state::ExpiryWheel::tick_for(idle_timeout_),
              state::ExpiryWheel::kSlots, 0);
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

uint32_t FlowTable::obtain(const net::FlowKey& key, util::Timestamp now) {
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
        return slot;
      });
  const uint32_t slot = *slot_entry;
  if (inserted) {
    // File the new flow once, at its due; later touches only move the
    // due on, and the wheel re-files it when it gets there.
    if (wheel_.size() == 0) wheel_.reseat(now);
    const util::Timestamp due = now + idle_timeout_ + 1;
    wheel_.schedule(slot, due, wheel_next());
    if (due < watermark_) watermark_ = due;
    stats_.cell<&FlowTableStats::flows_created>().inc();
    active_flows_.set(static_cast<int64_t>(index_.size()));
  }
  return slot;
}

FlowEntry& FlowTable::bind(const net::FlowKey& key, util::Timestamp now) {
  if (now >= watermark_) expire_idle(now);
  FlowEntry& entry = pool_[obtain(canonical(key), now)].entry;
  ++entry.packets_seen;
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
  return entry;
}

void FlowTable::map_entry(FlowEntry& entry, const std::string& service_data,
                          util::Timestamp now,
                          util::Timestamp mapping_expires) {
  entry.state = FlowState::kMapped;
  entry.service_data = service_data;
  entry.last_seen = now;
  entry.mapping_expires = mapping_expires;
}

void FlowTable::map_flow(const net::FlowKey& key, FlowEntry& entry,
                         const std::string& service_data,
                         util::Timestamp now, bool include_reverse,
                         util::Timestamp mapping_expires) {
  map_entry(entry, service_data, now, mapping_expires);
  const net::FlowKey reverse = key.reversed();
  if (!include_reverse || reverse == key) return;
  map_entry(pool_[obtain(canonical(reverse), now)].entry, service_data, now,
            mapping_expires);
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
  const auto result = wheel_.advance(
      now, wheel_next(),
      [this](uint32_t slot) {
        return pool_[slot].entry.last_seen + idle_timeout_ + 1;
      },
      [this](uint32_t slot) {
        Slot& s = pool_[slot];
        index_.erase(hash_key(s.key),
                     [slot](const uint32_t& h) { return h == slot; });
        if (s.key.is_cid()) {
          // The flow dies with aliases outstanding: drop the whole alias
          // set so no CID keeps resolving to a flow that no longer
          // exists.
          aliases_.evict(s.key.cid());
        }
        s.entry.service_data.clear();
        free_.push_back(slot);
      });
  watermark_ = result.next_due_bound;
  stats_.cell<&FlowTableStats::flows_expired>().inc(result.fired);
  active_flows_.set(static_cast<int64_t>(index_.size()));
  return result.fired;
}

}  // namespace nnn::dataplane
