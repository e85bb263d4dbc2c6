// Scale-out deployment (§4.6).
//
// "We can use multiple cores instead of one, and similarly add more
// than one middle-boxes to scale-out the deployment, along with a
// load-balancer that shares the traffic among servers. The main
// challenge to scale out cookies in a distributed deployment comes
// from verifying uniqueness as cookies from the same descriptor might
// appear in different places (a problem known as double-spending in
// digital cash schemes). We can relax uniqueness verification in
// certain cases — for example an ISP can ensure that all cookies from
// a specific descriptor always go through the same middle-box where
// uniqueness can be locally verified."
//
// This module holds the balancer's policy, both halves of that
// paragraph:
//  - DispatchPolicy::kFlowHash — the naive load balancer. Cookies from
//    one descriptor can land on different shards, whose replay caches
//    are independent: a copied cookie can be "spent" once per shard.
//  - DispatchPolicy::kDescriptorAffinity — the paper's fix: the
//    balancer peeks at the cookie id and pins each descriptor to one
//    shard, making the use-once check locally verifiable again.
//    Cookie-less packets still spread by flow hash (they need no
//    uniqueness check), so load balance is preserved where it matters.
//
// The balancer itself — the one owner of the CID steering state that
// pick_shard() reads — is runtime::Dataplane, which steers every
// ingested packet onto one of its worker shards.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/packet.h"
#include "quic/alias_table.h"
#include "telemetry/labels.h"

namespace nnn::dataplane {

enum class DispatchPolicy : uint8_t {
  kFlowHash = 0,          // naive: hash the 5-tuple
  kDescriptorAffinity,    // peek cookie id; pin descriptors to shards
};

// to_string(DispatchPolicy) lives in telemetry/labels.h (included
// above).

/// Shard selection under `policy`. Under descriptor affinity a
/// cookie-bearing packet is pinned by its cookie id (the cheap no-HMAC
/// peek); a QUIC short-header packet whose connection `aliases` knows
/// is pinned by the steering key learned at handshake (the cookie id
/// again — so rotation and migration keep hitting the shard owning the
/// descriptor); everything else spreads by the packet's FlowKey steer
/// key through util::steer_shard, which is platform-stable end to end.
size_t pick_shard(const net::Packet& packet, DispatchPolicy policy,
                  size_t shard_count, const quic::CidAliasTable& aliases);

}  // namespace nnn::dataplane
