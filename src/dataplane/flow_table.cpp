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
        builder.gauge("nnn_flows_active", "Flow-table connections resident",
                      {}, active_flows_.value());
      });
}

FlowTable::Connection FlowTable::connection(const net::FlowKey& key) const {
  Connection conn;
  if (key.is_cid()) {
    const uint64_t canon = aliases_.resolve(key.cid());
    conn.key = canon == key.cid() ? key : net::FlowKey::from_cid(canon);
  } else {
    const net::FlowKey::DirectionFree free = key.direction_free();
    conn.key = free.key;
    conn.reverse = free.reverse;
  }
  conn.hash = hash_key(conn.key);
  return conn;
}

const FlowTable::Slot* FlowTable::find(const Connection& conn) const {
  const uint32_t* slot = index_.find(conn.hash, index_matcher(conn.key));
  return slot == nullptr ? nullptr : &pool_[*slot];
}

uint32_t FlowTable::obtain(const Connection& conn, util::Timestamp now) {
  const auto [slot_entry, inserted] = index_.find_or_insert(
      conn.hash, index_matcher(conn.key), index_hasher(), [&] {
        uint32_t slot;
        if (!free_.empty()) {
          slot = free_.back();
          free_.pop_back();
        } else {
          pool_.emplace_back();
          slot = static_cast<uint32_t>(pool_.size() - 1);
        }
        Slot& s = pool_[slot];
        s = Slot{};
        s.key = conn.key;
        s.hash = conn.hash;
        return slot;
      });
  const uint32_t slot = *slot_entry;
  if (inserted) {
    // File the new connection once, at its due; later touches only
    // move the due on, and the wheel re-files it when it gets there.
    if (wheel_.size() == 0) wheel_.reseat(now);
    const util::Timestamp due = now + idle_timeout_ + 1;
    wheel_.schedule(slot, due, wheel_next());
    if (due < watermark_) watermark_ = due;
    stats_.cell<&FlowTableStats::flows_created>().inc();
    active_flows_.set(static_cast<int64_t>(index_.size()));
  }
  return slot;
}

FlowTable::Ref FlowTable::bind(const net::FlowKey& key, util::Timestamp now) {
  if (now >= watermark_) expire_idle(now);
  return bind(connection(key), now);
}

FlowTable::Ref FlowTable::bind(const Connection& conn, util::Timestamp now) {
  if (now >= watermark_) expire_idle(now);
  Slot& slot = pool_[obtain(conn, now)];
  slot.last_seen = now;
  FlowEntry& entry = slot.halves[conn.reverse];
  ++entry.packets_seen;
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
    entry.service = kNoService;
    entry.mapping_expires = 0;
  }
  return Ref(slot, conn.reverse);
}

void FlowTable::map_flow(Ref flow, ServiceId service, util::Timestamp now,
                         bool include_reverse,
                         util::Timestamp mapping_expires) {
  Slot& slot = *flow.slot_;
  slot.last_seen = now;
  const auto map = [&](FlowEntry& entry) {
    entry.state = FlowState::kMapped;
    entry.service = service;
    entry.mapping_expires = mapping_expires;
  };
  map(*flow);
  if (include_reverse && !slot.key.is_cid()) {
    map(slot.halves[!flow.reverse_]);
  }
}

Expected<const FlowEntry*> FlowTable::lookup(const net::FlowKey& key) const {
  const Connection conn = connection(key);
  const Slot* slot = find(conn);
  if (slot == nullptr) return unexpected(kUnknownFlowError);
  return &slot->halves[conn.reverse];
}

Expected<util::Timestamp> FlowTable::last_seen(
    const net::FlowKey& key) const {
  const Slot* slot = find(connection(key));
  if (slot == nullptr) return unexpected(kUnknownFlowError);
  return slot->last_seen;
}

void FlowTable::owe_ack(Ref flow, AckDebt debt) {
  Slot& slot = *flow.slot_;
  if (slot.ack_payer == kNoAck) ++acks_owed_;
  slot.ack_cookie = debt.cookie_id;
  slot.ack_payer = debt.reverse;
}

std::optional<AckDebt> FlowTable::owed_ack(Ref flow) const {
  const Slot& slot = *flow.slot_;
  if (slot.ack_payer == kNoAck) return std::nullopt;
  return AckDebt{slot.ack_cookie, slot.ack_payer != 0};
}

void FlowTable::settle_ack(Ref flow) {
  Slot& slot = *flow.slot_;
  if (slot.ack_payer == kNoAck) return;
  slot.ack_payer = kNoAck;
  --acks_owed_;
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
        return pool_[slot].last_seen + idle_timeout_ + 1;
      },
      [this](uint32_t slot) {
        Slot& s = pool_[slot];
        index_.erase(s.hash, [slot](const uint32_t& h) { return h == slot; });
        if (s.key.is_cid()) {
          // The flow dies with aliases outstanding: drop the whole alias
          // set so no CID keeps resolving to a flow that no longer
          // exists.
          aliases_.evict(s.key.cid());
        }
        // An ack nobody carried goes with its connection.
        if (s.ack_payer != kNoAck) --acks_owed_;
        free_.push_back(slot);
      });
  watermark_ = result.next_due_bound;
  stats_.cell<&FlowTableStats::flows_expired>().inc(result.fired);
  active_flows_.set(static_cast<int64_t>(index_.size()));
  return result.fired;
}

}  // namespace nnn::dataplane
