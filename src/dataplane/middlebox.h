// The cookie-enabled middlebox (§4.2 component 3, §4.6 deployment).
//
// This is the NFV-style box the paper benchmarks in Fig. 4: it sits on
// the forwarding path, runs the flow-table state machine, searches the
// first packets of each flow for a cookie on any transport, verifies
// cookies through the CookieVerifier, resolves service_data to a
// ServiceId through the ServiceRegistry once per verified cookie, and
// reports a per-packet verdict the forwarding element (sim link,
// zero-rating ledger, DSCP domain) acts on.
//
// Failure semantics are the paper's: anything that goes wrong —
// unknown id, bad MAC, stale timestamp, replay, malformed blob — just
// means best-effort; the packet is never dropped by the cookie layer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/flow_table.h"
#include "dataplane/service_registry.h"
#include "dataplane/zero_rating.h"
#include "net/packet.h"
#include "telemetry/view.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::dataplane {

/// What the forwarding element should do with a packet.
struct Verdict {
  /// Action resolved from the flow's service mapping; nullopt =
  /// best-effort/default handling.
  std::optional<ServiceAction> action;
  /// The service the flow is mapped to (for accounting/tests; the
  /// registry names it): kNoService when unmapped, or when the
  /// descriptor's service_data was never bound.
  ServiceId service = kNoService;
  /// True when this very packet carried the cookie that (newly)
  /// mapped the flow.
  bool mapped_now = false;
  /// Verification outcome when this packet carried a cookie.
  std::optional<cookies::VerifyStatus> verify_status;
};

struct MiddleboxStats {
  /// §4.6's three per-packet task classes.
  uint64_t task_search = 0;          // sniffed, no cookie found
  uint64_t task_search_and_verify = 0;  // cookie found and checked
  uint64_t task_map_only = 0;        // established flow fast path
  uint64_t packets = 0;
  uint64_t bytes = 0;

  friend bool operator==(const MiddleboxStats&,
                         const MiddleboxStats&) = default;
};

}  // namespace nnn::dataplane

namespace nnn::telemetry {

/// MiddleboxStats as registry families: the three task classes fan
/// into one family keyed by task=..., packets/bytes stand alone.
template <>
struct ViewTraits<dataplane::MiddleboxStats> {
  using S = dataplane::MiddleboxStats;
  static constexpr std::array fields{
      ViewField<S>{&S::task_search, MetricType::kCounter,
                   "nnn_middlebox_task_total",
                   "Packets by middlebox task class", "task", "search"},
      ViewField<S>{&S::task_search_and_verify, MetricType::kCounter,
                   "nnn_middlebox_task_total",
                   "Packets by middlebox task class", "task",
                   "search-and-verify"},
      ViewField<S>{&S::task_map_only, MetricType::kCounter,
                   "nnn_middlebox_task_total",
                   "Packets by middlebox task class", "task", "map-only"},
      ViewField<S>{&S::packets, MetricType::kCounter,
                   "nnn_middlebox_packets_total",
                   "Packets processed by the middlebox", "", ""},
      ViewField<S>{&S::bytes, MetricType::kCounter,
                   "nnn_middlebox_bytes_total",
                   "Bytes processed by the middlebox", "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::dataplane {

class Middlebox {
 public:
  struct Config {
    uint32_t sniff_window = FlowTable::kDefaultSniffWindow;
    util::Timestamp flow_idle_timeout = FlowTable::kDefaultIdleTimeout;
    /// When set, a verified cookie also remarks the packet's DSCP so an
    /// internal DiffServ domain can enforce (cookie->DSCP mode, §4.6).
    std::optional<uint8_t> remark_dscp;
    /// Honor the delivery-guarantee attribute (§4.3): when a verified
    /// cookie's descriptor requests it, the middlebox mints an
    /// acknowledgment cookie from the same descriptor and attaches it
    /// to the first reverse-path packet that can carry it.
    bool delivery_guarantees = false;
    /// Inspect every packet for cookies, not just the sniff window.
    /// The paper's cheap deployment sniffs "the first 3 incoming
    /// packets of each flow"; application-assisted services ("a video
    /// client can ask for extra bandwidth if its buffer runs low",
    /// §4.2) need cookies honored mid-flow. Costs a search per packet
    /// on non-mapped flows (see bench/ablation_dataplane).
    bool mid_flow_cookies = false;
  };

  /// The clock must outlive the middlebox. The verifier and registry
  /// are shared with the control plane (the cookie server installs
  /// descriptors into the verifier).
  Middlebox(const util::Clock& clock, cookies::CookieVerifier& verifier,
            ServiceRegistry& registry, Config config);
  Middlebox(const util::Clock& clock, cookies::CookieVerifier& verifier,
            ServiceRegistry& registry);
  /// Pinned: the stats view registers a collector holding `this`.
  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  /// Process one packet on the forwarding path: a burst of one through
  /// process_batch. May mutate the packet (DSCP remark in remark mode,
  /// an ack cookie attached under delivery guarantees).
  Verdict process(net::Packet& packet);

  /// Process a burst, filling verdicts[i] for packets[i]
  /// (verdicts.size() >= packets.size()). The one classify loop: it
  /// gives each packet the verdict process() would give it in order.
  /// The flow-table and replay state machines are order-sensitive, so
  /// the loop defers only what is provably independent: with delivery
  /// guarantees off, single-cookie verifications on flows no earlier
  /// in-flight cookie can touch. Those route through
  /// CookieVerifier::verify_batch (descriptor-grouped MACs); a packet
  /// whose connection (either direction) has a cookie pending waits
  /// for it.
  /// Composed stacks, and with delivery guarantees on every cookie,
  /// verify in order inside the loop; an owed ack attaches right after
  /// each packet's verdict. The clock is read once per burst, as the
  /// flow table's and the batched verify's `now`. packets[i] point
  /// into a PacketArena (or anywhere stable for the call); nothing is
  /// moved or copied.
  void process_batch(std::span<net::Packet* const> packets,
                     std::span<Verdict> verdicts);

  /// Zero-rating convenience: process + account to `ledger` ("two
  /// counters per IP"): bytes of flows mapped to ZeroRateAction count
  /// free, everything else charged. `subscriber` is the customer IP
  /// (source on uplink, destination on downlink).
  Verdict process_and_account(net::Packet& packet, ZeroRatingLedger& ledger,
                              const net::IpAddress& subscriber);

  /// Materialized from the live telemetry cells (by value).
  MiddleboxStats stats() const { return stats_.snapshot(); }
  const FlowTable& flows() const { return flow_table_; }
  cookies::CookieVerifier& verifier() { return verifier_; }
  /// Connections with a delivery-guarantee ack still owed: a count
  /// the flow table keeps as debts are recorded, paid, dropped, or
  /// expire with their connection.
  size_t pending_acks() const { return flow_table_.acks_owed(); }

 private:
  /// One queued single-cookie verification in a batch.
  struct PendingVerify {
    uint32_t index;  // packet position in the burst
    cookies::Transport transport;
    /// The connection the cookie will map: flow_key_for's canonical key
    /// in direction-free form.
    net::FlowKey key;
    /// The connection's hash (FlowTable::Connection::hash):
    /// key_has_pending compares whole keys only on a hash match.
    uint64_t hash;
    /// The flow touched in pass 1. Stable until the flush: the slot
    /// pool never moves slots, and FlowTable never evicts a connection
    /// before its due (see process_batch).
    FlowTable::Ref flow;
  };

  /// The flow key this packet's state lives under — and the ONE place
  /// the middlebox learns CID linkage on the way: a long header keys
  /// on the client's SCID (the canonical CID) and registers the
  /// server's CID as an alias after the entry exists; a short header
  /// with a prev_cid rotation marker records the alias, then resolves.
  /// Classic packets pass through to Packet::flow_key(). Keys are
  /// returned CANONICALIZED so two packets of one connection always
  /// compare equal (key_has_pending depends on that).
  net::FlowKey flow_key_for(const net::Packet& packet);

  /// Apply one verify outcome (transport restriction, flow mapping,
  /// verdict): the one reader of VerifyResult::descriptor, and the one
  /// place service_data resolves to a ServiceId. Returns whether it
  /// applied.
  bool apply_verified(const cookies::VerifyResult& result,
                      cookies::Transport transport, FlowTable::Ref flow,
                      util::Timestamp now, Verdict& verdict);

  /// The verdict's tail: a packet of a mapped flow that did not map it
  /// takes the flow's action (by id), and an action remarks DSCP.
  void finish_verdict(net::Packet& packet, const FlowEntry& entry,
                      Verdict& verdict) const;

  /// Apply a verified-cookie stack to a flow (the §4.5 loop); a
  /// delivery-guarantee cookie leaves an ack debt on its connection.
  void apply_stack(net::Packet& packet, FlowTable::Ref flow,
                   const cookies::ExtractedCookie& extracted,
                   util::Timestamp now, Verdict& verdict);

  /// True when `conn` belongs to a packet with a cookie still pending
  /// in the current batch. Compares its hash with each pending
  /// cookie's, and keys only on a hash match.
  bool key_has_pending(const FlowTable::Connection& conn) const;

  /// Verify all pending cookies and apply their outcomes in order.
  void flush_pending(std::span<net::Packet* const> packets,
                     std::span<Verdict> verdicts, util::Timestamp now);

  /// Attach the ack `flow`'s connection owes to this packet if it
  /// travels the way the debt says and a carrier fits.
  void maybe_attach_ack(net::Packet& packet, FlowTable::Ref flow);

  const util::Clock& clock_;
  cookies::CookieVerifier& verifier_;
  ServiceRegistry& registry_;
  Config config_;
  FlowTable flow_table_;
  telemetry::View<MiddleboxStats> stats_;
  /// Draws ack-cookie uuids; every shard starts from the same seed.
  util::Rng ack_rng_{0xacc5eed};
  /// Batch scratch (parallel vectors; no per-burst allocation once
  /// warm): queued cookies, their packet/transport info, and verdicts.
  std::vector<cookies::Cookie> pending_cookies_;
  std::vector<PendingVerify> pending_info_;
  std::vector<cookies::VerifyResult> pending_results_;
  /// Each tuple packet's connection, keyed in the burst's first stage.
  std::vector<FlowTable::Connection> connections_;
};

}  // namespace nnn::dataplane
