// Flow table with the paper's sniff-window state machine, keyed on
// net::FlowKey (PR 10: connection-ID flow binding).
//
// "For a given packet our middle-box has to perform one of three
// tasks: i) search for a potential cookie (first 2-3 packets of every
// flow), ii) search and verify a cookie (a packet that contains a
// cookie) or iii) simply map a packet to a given service (for a flow
// already updated in our system)" (§4.6). The Boost daemon "sniffs the
// first 3 incoming packets for each flow" (§5.2).
//
// States per flow:
//   kSniffing  — still inspecting the first `sniff_window` packets
//   kMapped    — a verified cookie bound this flow to a service
//   kBestEffort— the window passed with no (valid) cookie
//
// ## Connections
//
// One slot per connection. A tuple key and its reverse name one
// connection (net::FlowKey::direction_free); so do all the CIDs of a
// QUIC connection, through the embedded alias table below. A slot
// holds the connection's direction-free key, one FlowEntry per
// direction, one last_seen shared by both, and the ack the connection
// owes under delivery guarantees. The sniff window and the mapping
// lapse run per direction ("sniffs the first 3 incoming packets for
// each flow", §5.2), so one direction's packets never use up the
// other's window. Boost's daemon "adds this and the reverse flow to
// the fast lane": map_flow() with include_reverse writes the sibling
// half of the slot bind() found, with no second probe and no second
// slot. A CID-keyed connection uses one half for both directions.
// size(), flows_created and flows_expired count connections.
//
// ## Idle expiry
//
// A connection's *due* is last_seen + idle_timeout + 1, where
// last_seen is its latest packet in either direction: the first
// instant it has been idle for longer than idle_timeout. Each
// connection is filed once, when it is created, on a
// state::ExpiryWheel in the shape ReplayCache uses (256 slots, one
// tick = idle_timeout/64 rounded up). A touch writes only last_seen,
// so a due only grows; the wheel re-files a connection it reaches
// before its due. bind() advances the wheel only once `now` reaches
// its watermark (the wheel's next-due bound); expire_idle() advances
// it every time. Nothing walks the slot pool, so flow state costs O(1)
// amortized per packet. The contract, for times that never decrease
// per table:
//   - a connection is never evicted before its due;
//   - a connection is gone after any bind() or expire_idle() at a time
//     at or after its due plus one tick.
// The first clause is what lets the middlebox hold a Ref across a
// burst: a connection touched at `now` is due no sooner than
// now + idle_timeout + 1. An owed ack goes with its connection.
//
// ## Keying (PR 10)
//
// Slots are keyed on the direction-free net::FlowKey — the 5-tuple for
// classic traffic, the connection ID for QUIC-shaped traffic. CID keys
// are canonicalized through an embedded quic::CidAliasTable before any
// probe: add_alias() records a rotation (fresh CID joins an existing
// flow) and every subsequent bind/lookup on the fresh CID lands on
// the SAME slot. That is the mechanism behind the PR's headline
// claim: a cookie verified once in the handshake keeps its mapping
// across CID rotations and NAT rebinds, because neither changes the
// canonical CID the slot is keyed under. When a CID-keyed connection
// idles out, its whole alias set is evicted with it — a dead
// connection cannot leak alias-table entries.
//
// ## API
//
// bind() is the touch-or-create entry point and cannot fail: the table
// has no admission cap, idle expiry is what bounds it. It returns a
// Ref: the slot and the half for the packet's direction. A caller that
// keys a burst up front takes each packet's connection() once (the
// direction-free key and its hash), prefetch()es its index group, and
// binds the Connection; a slot keeps the hash for its erase. lookup(),
// last_seen() and add_alias() speak Expected<...> in util/error.h's
// taxonomy (domain kFlow): lookup() and last_seen() report an absent
// connection (kUnknownId), add_alias() an unlinkable rotation
// (kUnknownId). A 5-tuple caller keys through FlowKey::from_tuple().
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cookies/descriptor.h"
#include "dataplane/service_registry.h"
#include "net/five_tuple.h"
#include "net/flow_key.h"
#include "quic/alias_table.h"
#include "state/expiry_wheel.h"
#include "state/flat_table.h"
#include "telemetry/view.h"
#include "util/clock.h"
#include "util/expected.h"

namespace nnn::dataplane {

enum class FlowState : uint8_t { kSniffing = 0, kMapped, kBestEffort };

/// One direction of a connection (a slot holds two).
struct FlowEntry {
  FlowState state = FlowState::kSniffing;
  /// The verified cookie's service when state == kMapped.
  ServiceId service = kNoService;
  uint32_t packets_seen = 0;
  /// When a mapped flow reverts to best effort; 0 = never (the flow's
  /// lifetime). Set from the descriptor's mapping_ttl attribute.
  util::Timestamp mapping_expires = 0;
};
static_assert(sizeof(FlowEntry) == 16, "two directions fill 32 B");

/// An acknowledgment a connection owes under delivery guarantees
/// (§4.3): the descriptor to mint it from, and the orientation
/// (net::FiveTuple::sorts_reversed) of the packets that can carry it.
struct AckDebt {
  cookies::CookieId cookie_id = 0;
  bool reverse = false;
};

struct FlowTableStats {
  uint64_t flows_created = 0;
  uint64_t flows_expired = 0;
  /// CID rotations recorded against live flows (add_alias calls that
  /// linked a CID not linked before).
  uint64_t aliases_added = 0;

  friend bool operator==(const FlowTableStats&,
                         const FlowTableStats&) = default;
};

}  // namespace nnn::dataplane

namespace nnn::telemetry {

template <>
struct ViewTraits<dataplane::FlowTableStats> {
  using S = dataplane::FlowTableStats;
  static constexpr std::array fields{
      ViewField<S>{&S::flows_created, MetricType::kCounter,
                   "nnn_flows_created_total",
                   "Flow-table connections created", "", ""},
      ViewField<S>{&S::flows_expired, MetricType::kCounter,
                   "nnn_flows_expired_total",
                   "Flow-table connections evicted by idle timeout", "",
                   ""},
      ViewField<S>{&S::aliases_added, MetricType::kCounter,
                   "nnn_flow_aliases_total",
                   "CID rotations recorded against live flows", "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::dataplane {

class FlowTable {
  struct Slot;

 public:
  static constexpr uint32_t kDefaultSniffWindow = 3;
  static constexpr util::Timestamp kDefaultIdleTimeout =
      60 * util::kSecond;

  /// A packet's hold on its connection, as bind() returns it: the
  /// connection's slot and the half for the packet's direction. Valid
  /// until the connection idles out (the pool never moves a slot; the
  /// file comment says when a held Ref stays safe across a burst).
  class Ref {
   public:
    /// The packet's direction of the connection.
    FlowEntry& operator*() const;
    FlowEntry* operator->() const { return &**this; }

   private:
    friend class FlowTable;
    Ref(Slot& slot, bool reverse) : slot_(&slot), reverse_(reverse) {}
    Slot* slot_;
    bool reverse_;
  };

  /// The connection a packet's key names, keyed and hashed once: the
  /// direction-free key (a CID canonicalized through the alias table),
  /// the packet's direction, and the key's index hash.
  struct Connection {
    net::FlowKey key;
    bool reverse = false;
    uint64_t hash = 0;
  };

  explicit FlowTable(uint32_t sniff_window = kDefaultSniffWindow,
                     util::Timestamp idle_timeout = kDefaultIdleTimeout);
  /// Pinned: the stats view registers a collector holding `this`.
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// The connection `key` names (see Connection).
  Connection connection(const net::FlowKey& key) const;

  /// Prefetch the index group bind(conn) probes first. A hint: a burst
  /// asks for every packet's group before any bind waits on one.
  void prefetch(const Connection& conn) const { index_.prefetch(conn.hash); }

  /// Touch-or-create connection `conn` and count the packet on the
  /// half for its direction: advance kSniffing -> kBestEffort when
  /// that direction's window is exhausted, lapse its expired mapping.
  /// The touch moves the connection's last_seen to `now`. Advances the
  /// expiry wheel first once `now` reaches its watermark. An expiry
  /// can evict a CID connection's alias set, after which an alias
  /// names a connection of its own: key a CID after the expiry
  /// (bind(key, now) does), or canonically, as the middlebox does.
  Ref bind(const Connection& conn, util::Timestamp now);
  /// Expire, then bind(connection(key), now).
  Ref bind(const net::FlowKey& key, util::Timestamp now);

  /// Bind `flow`'s direction — and, when `include_reverse`, the other
  /// direction of its connection — to `service` (a cookie verified on
  /// this flow), touching the connection at `now`. `flow` is what
  /// bind() returned; both halves live in its slot, so nothing is
  /// probed or created. `mapping_expires` (0 = never) bounds how long
  /// the mapping holds. A CID-keyed connection keeps one half for both
  /// directions, so include_reverse is a no-op there.
  void map_flow(Ref flow, ServiceId service, util::Timestamp now,
                bool include_reverse, util::Timestamp mapping_expires = 0);

  /// Pure lookup: the half for `key`'s direction; kUnknownId when the
  /// connection is absent.
  Expected<const FlowEntry*> lookup(const net::FlowKey& key) const;

  /// When `key`'s connection last saw a packet, in either direction;
  /// kUnknownId when the connection is absent.
  Expected<util::Timestamp> last_seen(const net::FlowKey& key) const;

  /// Record the ack `flow`'s connection owes under delivery guarantees
  /// (§4.3): the next packet of the connection whose tuple orientation
  /// is `debt.reverse` carries it. A connection owes one ack at most; a
  /// later debt replaces an earlier one. The debt goes when it is
  /// settled or the connection idles out.
  void owe_ack(Ref flow, AckDebt debt);
  /// The ack `flow`'s connection owes, if any.
  std::optional<AckDebt> owed_ack(Ref flow) const;
  /// Forget `flow`'s debt: paid, or nothing left to mint it from.
  void settle_ack(Ref flow);
  /// Connections that owe an ack.
  size_t acks_owed() const { return acks_owed_; }

  /// Record a CID rotation: `fresh_cid` joins the flow `existing_cid`
  /// resolves to. Returns the canonical CID the flow is keyed under;
  /// kUnknownId when no live flow is keyed on `existing_cid` (never
  /// seen, or already idled out) — the caller proceeds unlinked and
  /// the fresh CID starts a flow of its own, the fail-open answer.
  Expected<uint64_t> add_alias(uint64_t fresh_cid, uint64_t existing_cid);

  /// Canonical CID for `cid` (itself when unaliased).
  uint64_t resolve_cid(uint64_t cid) const { return aliases_.resolve(cid); }

  /// Advance the expiry wheel to `now`: evict connections whose due has
  /// passed (idle since before now - idle_timeout) — with their owed
  /// ack and, for CID-keyed connections, their whole alias set —
  /// within the contract in the file comment. Returns how many
  /// connections were evicted. bind() runs this when `now` reaches the
  /// wheel's watermark; exposed for tests.
  size_t expire_idle(util::Timestamp now);

  /// Live connections.
  size_t size() const { return index_.size(); }
  /// CIDs resolvable through the embedded alias table.
  size_t alias_cids() const { return aliases_.cids(); }
  /// Materialized from the live telemetry cells (by value).
  FlowTableStats stats() const { return stats_.snapshot(); }

 private:
  /// Slot::ack_payer of a connection that owes no ack.
  static constexpr uint8_t kNoAck = 2;
  /// Connections live in a stable pool (deque + free list) behind a
  /// flat open-addressing index of slot handles — same state-layer
  /// shape as the descriptor store. Handle indirection is what
  /// preserves the contract the middlebox relies on: the Ref bind()
  /// returns stays valid across later inserts in the same burst (the
  /// index rehashes; the pool never moves a slot). A live slot is on
  /// the expiry wheel exactly once, chained through `wheel_next`; a
  /// free slot is on the free list.
  struct Slot {
    /// Direction-free (net::FlowKey::direction_free).
    net::FlowKey key;
    /// hash_key(key), kept for the index's erase and rehash.
    uint64_t hash = 0;
    /// Indexed by the packet's DirectionFree::reverse.
    FlowEntry halves[2];
    util::Timestamp last_seen = 0;
    cookies::CookieId ack_cookie = 0;
    uint32_t wheel_next = state::ExpiryWheel::kNil;
    /// Orientation that carries the owed ack; kNoAck when none.
    uint8_t ack_payer = kNoAck;
  };
  static_assert(sizeof(Slot) <= 128, "a flow slot fits two cache lines");

  /// std::hash<FlowKey> is already avalanched (mix64 over the
  /// platform-stable, direction-free steer key), so the index consumes
  /// it raw.
  static uint64_t hash_key(const net::FlowKey& key) {
    return std::hash<net::FlowKey>{}(key);
  }
  auto index_matcher(const net::FlowKey& key) const {
    return [this, &key](const uint32_t& slot) {
      return pool_[slot].key == key;
    };
  }
  auto index_hasher() const {
    return [this](const uint32_t& slot) { return pool_[slot].hash; };
  }
  /// The live slot of `conn`, or null.
  const Slot* find(const Connection& conn) const;
  /// Find-or-create the slot of `conn`. A create files the connection
  /// on the wheel and counts it.
  uint32_t obtain(const Connection& conn, util::Timestamp now);
  auto wheel_next() {
    return [this](uint32_t slot) -> uint32_t& {
      return pool_[slot].wheel_next;
    };
  }

  uint32_t sniff_window_;
  util::Timestamp idle_timeout_;
  state::FlatTable<uint32_t> index_;  // pool slot by direction-free key
  std::deque<Slot> pool_;
  std::vector<uint32_t> free_;
  /// CID -> canonical-CID resolution for the QUIC-keyed entries. The
  /// steer field is unused here (the dataplane's ingest-side table
  /// owns steering); flow keying only needs canonicalization. Not
  /// exported as nnn_quic_*: this table's facts are the flow table's,
  /// nnn_flow_aliases_total and nnn_flows_active.
  quic::CidAliasTable aliases_;
  /// Every live connection, filed at its due when created.
  state::ExpiryWheel wheel_;
  /// bind() advances the wheel only from this instant on (the wheel's
  /// next-due bound; kNever while it is empty).
  util::Timestamp watermark_ = state::ExpiryWheel::kNever;
  size_t acks_owed_ = 0;
  telemetry::View<FlowTableStats> stats_;
  /// Mirror of index_.size() so the exporter thread never reads the
  /// (unsynchronized) index itself — nnn_flows_active.
  telemetry::Gauge active_flows_;
  telemetry::Registration registration_;  // last: deregisters first
};

inline FlowEntry& FlowTable::Ref::operator*() const {
  return slot_->halves[reverse_];
}

}  // namespace nnn::dataplane
