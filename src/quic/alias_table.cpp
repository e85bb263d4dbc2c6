#include "quic/alias_table.h"

#include "cookies/cookie.h"
#include "net/packet.h"

namespace nnn::quic {

CidAliasTable::CidAliasTable(Config config) : config_(config) {}

void CidAliasTable::collect(telemetry::SampleBuilder& builder) const {
  stats_.collect(builder);
  builder.gauge("nnn_quic_connections",
                "QUIC connections resident in the CID alias table", {},
                connections_.value());
  builder.gauge("nnn_quic_cids",
                "Connection IDs resolvable (canonical + aliases)", {},
                cids_.value());
}

const CidAliasTable::Entry* CidAliasTable::find_entry(uint64_t cid) const {
  return index_.find(hash_cid(cid), index_matcher(cid));
}

bool CidAliasTable::bind(uint64_t canonical, uint64_t steer) {
  if (find_entry(canonical) != nullptr) return false;
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    pool_.emplace_back();
    slot = static_cast<uint32_t>(pool_.size() - 1);
  }
  Conn& conn = pool_[slot];
  conn.canonical = canonical;
  conn.steer = steer;
  conn.cids.clear();
  conn.cids.push_back(canonical);
  conn.live = true;
  ++conn.gen;
  index_.find_or_insert(hash_cid(canonical), index_matcher(canonical),
                        index_hasher(), [&] { return Entry{canonical, slot}; });
  connections_.add();
  cids_.set(static_cast<int64_t>(index_.size()));
  stats_.cell<&CidAliasStats::connections_bound>().inc();
  if (config_.max_connections != 0) {
    // Only a bounded table evicts in bind order; an unbounded one would
    // queue every connection it ever bound, live or not.
    fifo_.push_back(FifoEntry{slot, conn.gen});
    enforce_capacity();
  }
  return true;
}

Expected<uint64_t> CidAliasTable::alias(uint64_t fresh_cid,
                                        uint64_t existing_cid) {
  const Entry* existing = find_entry(existing_cid);
  if (existing == nullptr) {
    stats_.cell<&CidAliasStats::resolve_misses>().inc();
    return unexpected(Error{ErrorDomain::kFlow, ErrorCode::kUnknownId,
                            "cid alias target unknown"});
  }
  const uint32_t slot = existing->conn;
  Conn& conn = pool_[slot];
  const auto [entry, inserted] =
      index_.find_or_insert(hash_cid(fresh_cid), index_matcher(fresh_cid),
                            index_hasher(), [&] { return Entry{fresh_cid, slot}; });
  if (inserted) {
    conn.cids.push_back(fresh_cid);
    cids_.set(static_cast<int64_t>(index_.size()));
    stats_.cell<&CidAliasStats::aliases_added>().inc();
  }
  // Not inserted + different connection: collision; the first binding
  // wins and the caller's rotation marker is ignored.
  return pool_[entry->conn].canonical;
}

std::optional<CidBinding> CidAliasTable::find(uint64_t cid) const {
  const Entry* entry = find_entry(cid);
  if (entry == nullptr) {
    stats_.cell<&CidAliasStats::resolve_misses>().inc();
    return std::nullopt;
  }
  const Conn& conn = pool_[entry->conn];
  return CidBinding{conn.canonical, conn.steer};
}

uint64_t CidAliasTable::resolve(uint64_t cid) const {
  const Entry* entry = find_entry(cid);
  if (entry == nullptr) {
    stats_.cell<&CidAliasStats::resolve_misses>().inc();
    return cid;
  }
  return pool_[entry->conn].canonical;
}

std::optional<uint64_t> CidAliasTable::steer_key(uint64_t cid) const {
  const Entry* entry = find_entry(cid);
  if (entry == nullptr) {
    stats_.cell<&CidAliasStats::resolve_misses>().inc();
    return std::nullopt;
  }
  return pool_[entry->conn].steer;
}

void CidAliasTable::evict_slot(uint32_t slot) {
  Conn& conn = pool_[slot];
  if (!conn.live) return;
  for (uint64_t cid : conn.cids) {
    index_.erase(hash_cid(cid), index_matcher(cid));
  }
  conn.cids.clear();
  conn.cids.shrink_to_fit();
  conn.live = false;
  free_.push_back(slot);
  connections_.sub();
  cids_.set(static_cast<int64_t>(index_.size()));
  stats_.cell<&CidAliasStats::connections_evicted>().inc();
}

size_t CidAliasTable::evict(uint64_t canonical) {
  const Entry* entry = find_entry(canonical);
  if (entry == nullptr) return 0;
  const uint32_t slot = entry->conn;
  const size_t removed = pool_[slot].cids.size();
  evict_slot(slot);
  return removed;
}

void learn_steering(CidAliasTable& table, const net::Packet& packet) {
  if (!packet.is_quic()) return;
  const net::QuicHeader& q = *packet.quic;
  if (q.long_header) {
    // The handshake is the one packet where the balancer can see the
    // cookie: pin the connection to its descriptor's shard. Cookie-less
    // connections steer by their canonical CID — arbitrary but fixed,
    // which is all migration survival needs.
    uint64_t steer = q.scid;
    if (const auto raw = packet.cookie_bytes()) {
      if (const auto id = cookies::peek_cookie_id(raw->bytes())) steer = *id;
    }
    table.bind(q.scid, steer);
    table.alias(q.dcid, q.scid);
    return;
  }
  if (q.prev_cid) table.alias(q.dcid, *q.prev_cid);
}

uint64_t steer_key_for(const CidAliasTable& table, const net::Packet& packet) {
  if (packet.is_quic()) {
    const net::QuicHeader& q = *packet.quic;
    const uint64_t cid = q.long_header ? q.scid : q.dcid;
    if (const auto steer = table.steer_key(cid)) return *steer;
  }
  return packet.flow_key().steer_key();
}

void CidAliasTable::enforce_capacity() {
  while (connections() > config_.max_connections && !fifo_.empty()) {
    const FifoEntry head = fifo_.front();
    fifo_.pop_front();
    // Entries for slots evicted explicitly (flow death) — or evicted
    // and since rebound to a newer connection — are stale; skip them.
    if (!pool_[head.slot].live || pool_[head.slot].gen != head.gen) continue;
    evict_slot(head.slot);
  }
}

}  // namespace nnn::quic
