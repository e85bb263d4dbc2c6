#include "dataplane/sharding.h"

#include "cookies/cookie.h"
#include "util/hash.h"

namespace nnn::dataplane {

size_t pick_shard(const net::Packet& packet, DispatchPolicy policy,
                  size_t shard_count, const quic::CidAliasTable& aliases) {
  if (policy == DispatchPolicy::kDescriptorAffinity) {
    // Peek: no HMAC, no stack decode, no allocation — just the carrier
    // search and eight bytes of id. This mirrors the paper's hardware
    // note: "look the cookie id against a table of known descriptors"
    // before software. The id -> shard map goes through the shared
    // steering hash so the assignment is platform-stable (sequential
    // ids also balance, where the old raw `id % shards` striped them).
    if (const auto raw = packet.cookie_bytes()) {
      if (const auto id = cookies::peek_cookie_id(raw->bytes())) {
        return util::steer_shard(*id, shard_count);
      }
    }
    // Encrypted transport: the cookie only ever appears in the
    // handshake, so steady-state short-header packets reach here. The
    // alias table (fed by learn_steering on this same path) recovers
    // the steering key fixed at handshake time — the cookie id again —
    // so rotation and migration keep the descriptor pinned.
    return util::steer_shard(quic::steer_key_for(aliases, packet),
                             shard_count);
  }
  // kFlowHash stays deliberately naive — a tuple hash, exactly what a
  // CID-blind balancer does — but platform-stable, unlike the old
  // std::hash<FiveTuple> fallback. A NAT rebind changes this value;
  // that breakage is the ablation's control arm.
  return util::steer_shard(packet.flow_key().steer_key(), shard_count);
}

}  // namespace nnn::dataplane
