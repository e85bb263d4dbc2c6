#include "dataplane/middlebox.h"

#include <cassert>

#include "cookies/generator.h"

namespace nnn::dataplane {

Middlebox::Middlebox(const util::Clock& clock,
                     cookies::CookieVerifier& verifier,
                     ServiceRegistry& registry, Config config)
    : clock_(clock),
      verifier_(verifier),
      registry_(registry),
      config_(config),
      flow_table_(config.sniff_window, config.flow_idle_timeout) {
  stats_.register_with(telemetry::Registry::global());
}

Middlebox::Middlebox(const util::Clock& clock,
                     cookies::CookieVerifier& verifier,
                     ServiceRegistry& registry)
    : Middlebox(clock, verifier, registry, Config{}) {}

Verdict Middlebox::process(net::Packet& packet) {
  net::Packet* const burst[] = {&packet};
  Verdict verdict;
  process_batch(burst, std::span<Verdict>(&verdict, 1));
  return verdict;
}

net::FlowKey Middlebox::flow_key_for(const net::Packet& packet) {
  if (!packet.is_quic()) return packet.flow_key();
  const net::QuicHeader& q = *packet.quic;
  if (q.long_header) {
    // The handshake names the connection: the client's SCID is the
    // canonical CID every later packet resolves to.
    return net::FlowKey::from_cid(flow_table_.resolve_cid(q.scid));
  }
  if (q.prev_cid) {
    // Cooperative rotation marker: link the fresh CID before keying,
    // so this very packet already lands on the connection's entry.
    // An unlinkable marker (flow never seen or idled out) fails open:
    // the fresh CID simply starts a flow of its own.
    flow_table_.add_alias(q.dcid, *q.prev_cid);
  }
  return net::FlowKey::from_cid(flow_table_.resolve_cid(q.dcid));
}

bool Middlebox::apply_verified(const cookies::VerifyResult& result,
                               cookies::Transport transport,
                               FlowTable::Ref flow, util::Timestamp now,
                               Verdict& verdict) {
  verdict.verify_status = result.status;
  if (!result.ok()) return false;
  const cookies::Attributes& attrs = result.descriptor->attributes();
  // Transport restriction attribute: a descriptor may pin its cookies
  // to specific carriers.
  if (!attrs.allows_transport(transport)) {
    verdict.verify_status = cookies::VerifyStatus::kUnknownId;
    return false;
  }
  const ServiceId service = registry_.id(result.descriptor->service_data());
  if (attrs.granularity == cookies::Granularity::kFlow) {
    const util::Timestamp mapping_expires =
        attrs.mapping_ttl ? now + *attrs.mapping_ttl : 0;
    flow_table_.map_flow(flow, service, now, attrs.reverse_flow,
                         mapping_expires);
  }
  verdict.mapped_now = true;
  verdict.service = service;
  verdict.action = registry_.action(service);
  return true;
}

void Middlebox::finish_verdict(net::Packet& packet, const FlowEntry& entry,
                               Verdict& verdict) const {
  if (!verdict.mapped_now && entry.state == FlowState::kMapped) {
    verdict.service = entry.service;
    verdict.action = registry_.action(entry.service);
  }
  if (verdict.action && config_.remark_dscp) {
    packet.dscp = *config_.remark_dscp;
  }
}

void Middlebox::apply_stack(net::Packet& packet, FlowTable::Ref flow,
                            const cookies::ExtractedCookie& extracted,
                            util::Timestamp now, Verdict& verdict) {
  // With a composed stack, apply the first cookie this network can
  // verify (each network consumes its own layer, §4.5).
  for (const cookies::Cookie& cookie : extracted.stack) {
    const cookies::VerifyResult result = verifier_.verify(cookie);
    if (!apply_verified(result, extracted.transport, flow, now, verdict)) {
      continue;
    }
    if (config_.delivery_guarantees &&
        result.descriptor->attributes().delivery_guarantee) {
      // The network owes the sender an acknowledgment on the reverse
      // path (§4.3): a packet of this connection travelling the other
      // way carries it.
      flow_table_.owe_ack(
          flow, AckDebt{cookie.cookie_id, !packet.tuple.sorts_reversed()});
    }
    break;
  }
}

bool Middlebox::key_has_pending(const FlowTable::Connection& conn) const {
  for (const PendingVerify& p : pending_info_) {
    // The pending cookie may map p.key's connection in one direction or
    // (reverse_flow attribute, on by default) both; either way this
    // packet must not observe flow state from before that mapping
    // lands. Keys are canonical (flow_key_for) and direction-free, so
    // two CIDs of one connection and both directions of a tuple flow
    // meet here. Equal keys hash equal, so the hash filter keeps the
    // check exact.
    if (p.hash == conn.hash && p.key == conn.key) return true;
  }
  return false;
}

void Middlebox::process_batch(std::span<net::Packet* const> packets,
                              std::span<Verdict> verdicts) {
  assert(verdicts.size() >= packets.size());
  // One clock read per burst (the verifier batches under the same
  // timestamp; see CookieVerifier::verify_batch on why that is sound).
  const util::Timestamp now = clock_.now();
  pending_cookies_.clear();
  pending_info_.clear();

  // Stage the burst's cache misses so they overlap instead of
  // queueing: key each tuple packet's connection once and ask for its
  // flow-index group before any packet probes the table. A CID packet
  // is keyed in order below, because keying it can link an alias that
  // an earlier packet's flow makes linkable.
  connections_.resize(packets.size());
  for (size_t i = 0; i < packets.size(); ++i) {
    const net::Packet& packet = *packets[i];
    if (packet.is_quic()) continue;
    connections_[i] = flow_table_.connection(packet.flow_key());
    flow_table_.prefetch(connections_[i]);
  }

  for (size_t i = 0; i < packets.size(); ++i) {
    net::Packet& packet = *packets[i];
    // flow_key_for learns CID aliases as it keys; linking names never
    // changes a pending entry pointer.
    const FlowTable::Connection conn =
        packet.is_quic() ? flow_table_.connection(flow_key_for(packet))
                         : connections_[i];
    // A queued cookie may remap this packet's flow; settle it before
    // this packet observes the flow state.
    if (!pending_info_.empty() && key_has_pending(conn)) {
      flush_pending(packets, verdicts, now);
    }
    stats_.cell<&MiddleboxStats::packets>().inc();
    stats_.cell<&MiddleboxStats::bytes>().inc(packet.size());
    const FlowTable::Ref flow = flow_table_.bind(conn, now);
    const FlowEntry& entry = *flow;
    if (packet.is_quic() && packet.quic->long_header) {
      // Register the server's handshake CID against the entry that now
      // exists, so reverse-direction short headers resolve to it too.
      flow_table_.add_alias(packet.quic->dcid, packet.quic->scid);
    }
    Verdict verdict;

    const bool inspect =
        entry.state == FlowState::kSniffing ||
        (config_.mid_flow_cookies && entry.state != FlowState::kMapped);
    if (inspect) {
      // Task (i)/(ii): inspect this packet for a cookie on any carrier.
      const auto extracted = cookies::extract(packet);
      if (!extracted) {
        stats_.cell<&MiddleboxStats::task_search>().inc();
      } else {
        stats_.cell<&MiddleboxStats::task_search_and_verify>().inc();
        if (extracted->stack.size() == 1 && !config_.delivery_guarantees) {
          // The common case: defer the MAC into the batched verify.
          // (FlowTable hands out Refs into a stable slot pool — later
          // inserts rehash only the handle index — and never evicts a
          // connection before its due. This one was touched at `now`,
          // so it is due no sooner than now + idle_timeout + 1, and
          // every wheel advance in this burst runs at `now`: holding
          // the Ref until the flush is safe.)
          pending_cookies_.push_back(extracted->stack.front());
          pending_info_.push_back(PendingVerify{static_cast<uint32_t>(i),
                                                extracted->transport,
                                                conn.key, conn.hash, flow});
          continue;  // verdict written by flush_pending
        }
        // A composed stack tries its entries in order with early exit,
        // and a delivery guarantee records an ack debt that a later
        // packet of this burst may pay: both are sequential. Settle the
        // queue, then verify now.
        flush_pending(packets, verdicts, now);
        apply_stack(packet, flow, *extracted, now, verdict);
      }
    } else {
      // Task (iii): established flow, just map.
      stats_.cell<&MiddleboxStats::task_map_only>().inc();
    }

    finish_verdict(packet, entry, verdict);
    if (config_.delivery_guarantees && flow_table_.acks_owed() != 0) {
      maybe_attach_ack(packet, flow);
    }
    verdicts[i] = verdict;
  }
  flush_pending(packets, verdicts, now);
}

void Middlebox::flush_pending(std::span<net::Packet* const> packets,
                              std::span<Verdict> verdicts,
                              util::Timestamp now) {
  if (pending_info_.empty()) return;
  pending_results_.resize(pending_cookies_.size());
  verifier_.verify_batch(pending_cookies_, pending_results_);

  for (size_t k = 0; k < pending_info_.size(); ++k) {
    const PendingVerify& p = pending_info_[k];
    net::Packet& packet = *packets[p.index];
    Verdict verdict;
    apply_verified(pending_results_[k], p.transport, p.flow, now, verdict);
    finish_verdict(packet, *p.flow, verdict);
    verdicts[p.index] = verdict;
  }
  pending_cookies_.clear();
  pending_info_.clear();
}

void Middlebox::maybe_attach_ack(net::Packet& packet, FlowTable::Ref flow) {
  const std::optional<AckDebt> owed = flow_table_.owed_ack(flow);
  if (!owed || owed->reverse != packet.tuple.sorts_reversed()) return;
  const cookies::DescriptorView* descriptor = verifier_.find(owed->cookie_id);
  if (!descriptor) {
    flow_table_.settle_ack(flow);  // revoked/expired: nothing to ack with
    return;
  }
  // Mint a fresh ack cookie from the same descriptor and try the
  // carriers this packet supports; if none fits, keep the debt and
  // try the flow's next packet.
  cookies::Cookie ack;
  ack.cookie_id = descriptor->cookie_id();
  ack.uuid = crypto::Uuid::generate(ack_rng_);
  ack.timestamp = cookies::to_cookie_time(clock_.now());
  ack.signature = ack.compute_tag(descriptor->schedule());
  for (const auto transport :
       {cookies::Transport::kIpv6Extension,
        cookies::Transport::kUdpHeader, cookies::Transport::kHttpHeader,
        cookies::Transport::kTlsExtension}) {
    if (cookies::attach(packet, ack, transport)) {
      flow_table_.settle_ack(flow);
      return;
    }
  }
}

Verdict Middlebox::process_and_account(net::Packet& packet,
                                       ZeroRatingLedger& ledger,
                                       const net::IpAddress& subscriber) {
  Verdict verdict = process(packet);
  const bool free =
      verdict.action &&
      std::holds_alternative<ZeroRateAction>(*verdict.action);
  ledger.record(subscriber, packet.size(), free);
  return verdict;
}

}  // namespace nnn::dataplane
