// Connection-ID alias resolution for the encrypted transport (PR 10
// tentpole).
//
// A QUIC connection is named by many connection IDs over its lifetime:
// the client's initial SCID, the server's handshake SCID, and every
// fresh CID a rotation announces. Flow state must not fragment across
// them — "the cookie need only be presented once" (§4.1) is a claim
// about the CONNECTION, not about whichever CID the current packet
// happens to carry. The CidAliasTable is the structure that collapses
// the many names into one: every CID maps to the connection's
// canonical CID (the first one seen, by convention the client's
// initial SCID) plus a steering key fixed at bind time.
//
// The steering key is what lets a migrated flow keep hitting the shard
// that owns its descriptor: the dataplane binds it to the cookie id
// seen in the handshake, so util::steer_shard(steer) names the same
// worker for every packet of the connection — across CID rotations AND
// NAT rebinds, which is exactly what tuple-hash steering cannot do
// (the rebind changes the tuple, the tuple hash, and therefore the
// shard, orphaning the per-worker descriptor and replay state).
//
// Shape: one FlatTable keyed by CID whose elements are u32 indices
// into a connection pool (the FlowTable handle-table idiom), so a
// rotation costs one flat-hash insert and resolution is one probe.
// Connections record their outstanding CIDs; eviction — explicit on
// flow death, or FIFO once `max_connections` is exceeded — removes
// every alias with the connection, so a dead connection cannot leak
// index entries (the alias-eviction test pins this).
//
// Thread-compatibility matches FlatTable: single mutator; concurrent
// readers only on a table no thread mutates. collect() is the
// exception: it reads telemetry cells only, so its owner may export
// the table from any thread while the mutator runs. The table does
// not register itself; the owner whose facts these are does
// (runtime::Dataplane for its balancer table), so each connection is
// exported once.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "state/flat_table.h"
#include "telemetry/metrics.h"
#include "telemetry/view.h"
#include "util/expected.h"

namespace nnn::net {
struct Packet;
}  // namespace nnn::net

namespace nnn::quic {

/// What a CID resolves to.
struct CidBinding {
  /// The connection's one stable name (its first CID).
  uint64_t canonical = 0;
  /// Shard-steering key fixed when the connection was bound — the
  /// cookie id for cookie-bearing connections, a flow-key hash for
  /// cookie-less ones.
  uint64_t steer = 0;
};

struct CidAliasStats {
  uint64_t connections_bound = 0;
  uint64_t aliases_added = 0;
  uint64_t resolve_misses = 0;
  uint64_t connections_evicted = 0;

  friend bool operator==(const CidAliasStats&, const CidAliasStats&) = default;
};

}  // namespace nnn::quic

namespace nnn::telemetry {

template <>
struct ViewTraits<quic::CidAliasStats> {
  using S = quic::CidAliasStats;
  static constexpr std::array fields{
      ViewField<S>{&S::connections_bound, MetricType::kCounter,
                   "nnn_quic_connections_bound_total",
                   "QUIC connections registered in the CID alias table", "",
                   ""},
      ViewField<S>{&S::aliases_added, MetricType::kCounter,
                   "nnn_quic_aliases_added_total",
                   "CID rotations recorded (fresh CID aliased to a "
                   "connection)",
                   "", ""},
      ViewField<S>{&S::resolve_misses, MetricType::kCounter,
                   "nnn_quic_resolve_misses_total",
                   "CID resolutions that found no binding", "", ""},
      ViewField<S>{&S::connections_evicted, MetricType::kCounter,
                   "nnn_quic_connections_evicted_total",
                   "Connections evicted (explicit death or capacity FIFO)",
                   "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::quic {

struct CidAliasConfig {
  /// Connection capacity; binding past it FIFO-evicts the oldest
  /// connection (and all its aliases). 0 = unbounded.
  size_t max_connections = 1 << 20;
};

class CidAliasTable {
 public:
  using Config = CidAliasConfig;

  explicit CidAliasTable(Config config = {});
  CidAliasTable(const CidAliasTable&) = delete;
  CidAliasTable& operator=(const CidAliasTable&) = delete;

  /// Register a connection: `canonical` becomes its stable name (and
  /// its first resolvable CID), `steer` its steering key. Idempotent
  /// for an already-bound canonical (returns false); a CID already
  /// aliased to a DIFFERENT connection also returns false (collision,
  /// first binding wins).
  bool bind(uint64_t canonical, uint64_t steer);

  /// Record a rotation: `fresh_cid` joins the connection that
  /// `existing_cid` resolves to. Returns the canonical CID, or
  /// Error{kFlow, kUnknownId} when `existing_cid` is not bound —
  /// a rotation marker for a connection never seen (restart, eviction)
  /// cannot be linked and the caller falls back to tuple keying.
  Expected<uint64_t> alias(uint64_t fresh_cid, uint64_t existing_cid);

  /// The binding behind a CID, or nullopt. Misses are counted — a
  /// miss on the dataplane path means a short-header packet whose
  /// connection the table does not know.
  std::optional<CidBinding> find(uint64_t cid) const;

  /// Canonical CID for `cid`, or `cid` itself when unknown (an unknown
  /// CID is its own connection as far as keying is concerned).
  uint64_t resolve(uint64_t cid) const;

  /// Steering key for `cid`, if bound.
  std::optional<uint64_t> steer_key(uint64_t cid) const;

  /// Drop the connection `canonical` names and every alias pointing at
  /// it; returns the number of CIDs removed (0 = unknown connection).
  size_t evict(uint64_t canonical);

  size_t connections() const {
    return static_cast<size_t>(connections_.value());
  }
  size_t cids() const { return index_.size(); }

  CidAliasStats stats() const { return stats_.snapshot(); }
  /// Append the nnn_quic_* families. Reads cells only: safe from any
  /// thread while the mutator runs.
  void collect(telemetry::SampleBuilder& builder) const;

 private:
  struct Entry {
    uint64_t cid = 0;
    uint32_t conn = 0;  // index into pool_
  };
  struct Conn {
    uint64_t canonical = 0;
    uint64_t steer = 0;
    /// Every CID resolving to this connection, canonical included —
    /// the eviction walk that keeps index_ leak-free.
    std::vector<uint64_t> cids;
    bool live = false;
    /// Bumped on every bind into this slot, so a stale FIFO entry for
    /// a slot that died and was reused never evicts the newcomer.
    uint64_t gen = 0;
  };

  static uint64_t hash_cid(uint64_t cid) { return state::mix_hash(cid); }
  auto index_matcher(uint64_t cid) const {
    return [cid](const Entry& e) { return e.cid == cid; };
  }
  static auto index_hasher() {
    return [](const Entry& e) { return hash_cid(e.cid); };
  }

  const Entry* find_entry(uint64_t cid) const;
  void evict_slot(uint32_t slot);
  void enforce_capacity();

  Config config_;
  state::FlatTable<Entry> index_;  // cid -> pool slot
  std::deque<Conn> pool_;
  std::vector<uint32_t> free_;
  /// Bind-order queue for FIFO capacity eviction, kept by a bounded
  /// table only (lazily skips slots already evicted explicitly or
  /// since rebound).
  struct FifoEntry {
    uint32_t slot;
    uint64_t gen;
  };
  std::deque<FifoEntry> fifo_;
  mutable telemetry::View<CidAliasStats> stats_;
  /// Live connections, and index_.size() mirrored for collect().
  telemetry::Gauge connections_;
  telemetry::Gauge cids_;
};

/// Balancer-side steering education: feed every packet through on the
/// dispatch path. A long header binds the connection under the
/// client's SCID with the cookie id (the no-HMAC peek) as the steering
/// key — or the SCID itself for cookie-less connections — and aliases
/// the server's CID; a short header carrying a prev_cid rotation
/// marker aliases the fresh DCID. Non-QUIC packets are ignored.
/// Fail-open throughout: an unlinkable marker simply leaves the fresh
/// CID unknown, and steer_key_for() falls back to the flow key.
void learn_steering(CidAliasTable& table, const net::Packet& packet);

/// The key to feed util::steer_shard for this packet: the connection's
/// learned steering key when the table knows the packet's CID,
/// otherwise the packet's FlowKey steer key (platform-stable tuple
/// hash). This is what makes affinity survive rotation AND migration —
/// the learned key is fixed at handshake, while the tuple fallback
/// changes with every NAT rebind.
uint64_t steer_key_for(const CidAliasTable& table, const net::Packet& packet);

}  // namespace nnn::quic
