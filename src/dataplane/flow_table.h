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
// ## Idle expiry
//
// A flow's *due* is last_seen + idle_timeout + 1: the first instant it
// has been idle for longer than idle_timeout. Each flow is filed once,
// when it is created, on a state::ExpiryWheel in the shape ReplayCache
// uses (256 slots, one tick = idle_timeout/64 rounded up). A touch
// writes only last_seen, so a due only grows; the wheel re-files a
// flow it reaches before its due. bind() advances the wheel only once
// `now` reaches its watermark (the wheel's next-due bound);
// expire_idle() advances it every time.
// Nothing walks the slot pool, so flow state costs O(1) amortized per
// packet. The contract, for times that never decrease per table:
//   - a flow is never evicted before its due;
//   - a flow is gone after any bind() or expire_idle() at a time at or
//     after its due plus one tick.
// The first clause is what lets the middlebox hold a FlowEntry* across
// a burst: an entry touched at `now` is due no sooner than
// now + idle_timeout + 1.
//
// ## Keying (PR 10)
//
// Entries are keyed on net::FlowKey — the 5-tuple for classic
// traffic, the connection ID for QUIC-shaped traffic. CID keys are
// canonicalized through an embedded quic::CidAliasTable before any
// probe: add_alias() records a rotation (fresh CID joins an existing
// flow) and every subsequent bind/lookup on the fresh CID lands on
// the SAME FlowEntry. That is the mechanism behind the PR's headline
// claim: a cookie verified once in the handshake keeps its mapping
// across CID rotations and NAT rebinds, because neither changes the
// canonical CID the entry is keyed under. When a CID-keyed flow idles
// out, its whole alias set is evicted with it — a dead connection
// cannot leak alias-table entries.
//
// ## API
//
// bind() is the touch-or-create entry point and cannot fail: the table
// has no admission cap, idle expiry is what bounds it. lookup() and
// add_alias() speak Expected<...> in util/error.h's taxonomy (domain
// kFlow): lookup() reports an absent flow (kUnknownId), add_alias() an
// unlinkable rotation (kUnknownId). A 5-tuple caller keys through
// FlowKey::from_tuple().
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

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

struct FlowEntry {
  FlowState state = FlowState::kSniffing;
  uint32_t packets_seen = 0;
  /// service_data of the verified cookie when state == kMapped.
  std::string service_data;
  util::Timestamp last_seen = 0;
  /// When a mapped flow reverts to best effort; 0 = never (the flow's
  /// lifetime). Set from the descriptor's mapping_ttl attribute.
  util::Timestamp mapping_expires = 0;
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
                   "nnn_flows_created_total", "Flow-table entries created",
                   "", ""},
      ViewField<S>{&S::flows_expired, MetricType::kCounter,
                   "nnn_flows_expired_total",
                   "Flow-table entries evicted by idle timeout", "", ""},
      ViewField<S>{&S::aliases_added, MetricType::kCounter,
                   "nnn_flow_aliases_total",
                   "CID rotations recorded against live flows", "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::dataplane {

class FlowTable {
 public:
  static constexpr uint32_t kDefaultSniffWindow = 3;
  static constexpr util::Timestamp kDefaultIdleTimeout =
      60 * util::kSecond;

  explicit FlowTable(uint32_t sniff_window = kDefaultSniffWindow,
                     util::Timestamp idle_timeout = kDefaultIdleTimeout);
  /// Pinned: the stats view registers a collector holding `this`.
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Touch-or-create the flow `key` names: count the packet, advance
  /// kSniffing -> kBestEffort when the window is exhausted, lapse
  /// expired mappings. CID keys are canonicalized through the alias
  /// table first. Advances the expiry wheel first once `now` reaches
  /// its watermark. The entry is stable across later inserts (the pool
  /// never moves) until the flow idles out.
  FlowEntry& bind(const net::FlowKey& key, util::Timestamp now);

  /// Bind the flow — and, when `include_reverse`, its reverse — to a
  /// service (a cookie verified on this flow). `entry` is the forward
  /// flow's entry, as bind(key, ...) returned it; it is mapped in
  /// place, and only the reverse is looked up (created if absent).
  /// `mapping_expires` (0 = never) bounds how long the mapping holds.
  /// A CID key is its own reverse (direction-insensitive), so
  /// include_reverse is a no-op there.
  void map_flow(const net::FlowKey& key, FlowEntry& entry,
                const std::string& service_data, util::Timestamp now,
                bool include_reverse, util::Timestamp mapping_expires = 0);

  /// Pure lookup; kUnknownId when the flow is absent.
  Expected<const FlowEntry*> lookup(const net::FlowKey& key) const;

  /// Record a CID rotation: `fresh_cid` joins the flow `existing_cid`
  /// resolves to. Returns the canonical CID the flow is keyed under;
  /// kUnknownId when no live flow is keyed on `existing_cid` (never
  /// seen, or already idled out) — the caller proceeds unlinked and
  /// the fresh CID starts a flow of its own, the fail-open answer.
  Expected<uint64_t> add_alias(uint64_t fresh_cid, uint64_t existing_cid);

  /// Canonical CID for `cid` (itself when unaliased).
  uint64_t resolve_cid(uint64_t cid) const { return aliases_.resolve(cid); }

  /// Advance the expiry wheel to `now`: evict flows whose due has
  /// passed (idle since before now - idle_timeout) — and, for CID-keyed
  /// flows, their whole alias set — within the contract in the file
  /// comment. Returns how many flows were evicted. bind() runs this
  /// when `now` reaches the wheel's watermark; exposed for tests.
  size_t expire_idle(util::Timestamp now);

  size_t size() const { return index_.size(); }
  /// CIDs resolvable through the embedded alias table.
  size_t alias_cids() const { return aliases_.cids(); }
  /// Materialized from the live telemetry cells (by value).
  FlowTableStats stats() const { return stats_.snapshot(); }

 private:
  /// Flows live in a stable pool (deque + free list) behind a flat
  /// open-addressing index of slot handles — same state-layer shape as
  /// the descriptor store. Handle indirection is what preserves the
  /// contract the middlebox relies on: the FlowEntry& bind() returns
  /// stays valid across later inserts in the same burst (the index
  /// rehashes; the pool never moves an entry). A live slot is on the
  /// expiry wheel exactly once, chained through `wheel_next`; a free
  /// slot is on the free list.
  struct Slot {
    net::FlowKey key;
    FlowEntry entry;
    uint32_t wheel_next = state::ExpiryWheel::kNil;
  };
  static_assert(sizeof(Slot) <= 128, "a flow slot fits two cache lines");

  /// std::hash<FlowKey> is already avalanched (mix64 over the
  /// platform-stable steer key), so the index consumes it raw.
  static uint64_t hash_key(const net::FlowKey& key) {
    return std::hash<net::FlowKey>{}(key);
  }
  auto index_matcher(const net::FlowKey& key) const {
    return [this, &key](const uint32_t& slot) {
      return pool_[slot].key == key;
    };
  }
  auto index_hasher() const {
    return [this](const uint32_t& slot) {
      return hash_key(pool_[slot].key);
    };
  }
  /// Canonicalize a CID key through the alias table.
  net::FlowKey canonical(const net::FlowKey& key) const;
  /// Find-or-create the slot of canonical `key`. A create files the
  /// flow on the wheel and counts it.
  uint32_t obtain(const net::FlowKey& key, util::Timestamp now);
  static void map_entry(FlowEntry& entry, const std::string& service_data,
                        util::Timestamp now,
                        util::Timestamp mapping_expires);
  auto wheel_next() {
    return [this](uint32_t slot) -> uint32_t& {
      return pool_[slot].wheel_next;
    };
  }

  uint32_t sniff_window_;
  util::Timestamp idle_timeout_;
  state::FlatTable<uint32_t> index_;  // pool slot by canonical FlowKey
  std::deque<Slot> pool_;
  std::vector<uint32_t> free_;
  /// CID -> canonical-CID resolution for the QUIC-keyed entries. The
  /// steer field is unused here (the dataplane's ingest-side table
  /// owns steering); flow keying only needs canonicalization. Not
  /// exported as nnn_quic_*: this table's facts are the flow table's,
  /// nnn_flow_aliases_total and nnn_flows_active.
  quic::CidAliasTable aliases_;
  /// Every live flow, filed at its due when created.
  state::ExpiryWheel wheel_;
  /// bind() advances the wheel only from this instant on (the wheel's
  /// next-due bound; kNever while it is empty).
  util::Timestamp watermark_ = state::ExpiryWheel::kNever;
  telemetry::View<FlowTableStats> stats_;
  /// Mirror of index_.size() so the exporter thread never reads the
  /// (unsynchronized) index itself — nnn_flows_active.
  telemetry::Gauge active_flows_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::dataplane
