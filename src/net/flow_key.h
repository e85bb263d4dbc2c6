// Unified flow identity (PR 10 API redesign).
//
// The paper keys everything on the classic 5-tuple; encrypted
// transports broke that assumption years later. QUIC flows are named
// by connection IDs precisely so they survive what kills a 5-tuple:
// NAT rebinding and connection migration change the address/port pair
// mid-flow while the CID stays the flow's stable name (QASM's central
// observation about stateful middleboxes). FlowKey is the sum type
// that lets every keyed structure — dataplane::FlowTable, the DPI
// flow cache, OOB matching, the RX-demux steering fallback — speak
// both vocabularies through one value:
//
//   FlowKey::from_tuple(t)   classic cleartext flow
//   FlowKey::from_cid(c)     QUIC-shaped flow, named by connection ID
//
// steer_key() is the shared, platform-stable 64-bit derivation used
// for shard steering and FlatTable probing. It deliberately avoids
// std::hash (implementation-defined) for the same reason
// util::steer_shard does: replay caches and descriptor hot tiers are
// sharded by this value, and "which worker owns flow X" must not
// drift across platforms or standard libraries.
//
// ## Direction
//
// A connection is one flow seen from two directions; the paper's
// daemon "adds this and the reverse flow to the fast lane" (§5.2).
// direction_free() names the connection: a tuple key with the endpoint
// (ip, port) that sorts first as its source, plus whether the packet's
// tuple is the reverse of that form. CID keys are direction-free by
// construction (both directions of a connection resolve to the same
// canonical CID — see quic::CidAliasTable), so reversed() and
// direction_free() are the identity for them. steer_key() and
// std::hash hash the direction-free form, so both directions of a
// flow reach one shard and one hash bucket; operator== still tells
// the two directions apart.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "net/five_tuple.h"
#include "util/hash.h"

namespace nnn::net {

class FlowKey {
 public:
  enum class Kind : uint8_t { kFiveTuple = 0, kConnectionId = 1 };

  /// Default: the zero five-tuple (mirrors FiveTuple{}).
  FlowKey() = default;

  static FlowKey from_tuple(const FiveTuple& tuple) {
    FlowKey k;
    k.kind_ = Kind::kFiveTuple;
    k.tuple_ = tuple;
    return k;
  }

  static FlowKey from_cid(uint64_t cid) {
    FlowKey k;
    k.kind_ = Kind::kConnectionId;
    k.cid_ = cid;
    return k;
  }

  Kind kind() const { return kind_; }
  bool is_tuple() const { return kind_ == Kind::kFiveTuple; }
  bool is_cid() const { return kind_ == Kind::kConnectionId; }

  /// Valid only for the matching kind; the other accessor returns the
  /// inactive (zero) alternative, never traps — keys are plain data.
  const FiveTuple& tuple() const { return tuple_; }
  uint64_t cid() const { return cid_; }

  /// The same flow seen from the opposite direction. CID keys name the
  /// connection, not a direction, so they are their own reverse.
  FlowKey reversed() const {
    return is_cid() ? *this : from_tuple(tuple_.reversed());
  }

  /// A key in direction-free form, and which way its packet travels.
  struct DirectionFree;

  /// The connection this key's flow belongs to, named alike from both
  /// directions (see the file comment).
  DirectionFree direction_free() const;

  /// Platform-stable 64-bit key for steering (util::steer_shard) and
  /// FlatTable probing, taken over the direction-free form. No
  /// std::hash anywhere in the chain; fixed vectors are pinned in
  /// tests/test_quic.cpp.
  uint64_t steer_key() const;

  std::string to_string() const;

  friend bool operator==(const FlowKey& a, const FlowKey& b) {
    if (a.kind_ != b.kind_) return false;
    return a.is_cid() ? a.cid_ == b.cid_ : a.tuple_ == b.tuple_;
  }

 private:
  Kind kind_ = Kind::kFiveTuple;
  FiveTuple tuple_{};
  uint64_t cid_ = 0;
};

struct FlowKey::DirectionFree {
  /// Both directions of one connection give the same key.
  FlowKey key;
  /// The packet's tuple is `key`'s tuple reversed (never for a CID).
  bool reverse = false;
};

inline FlowKey::DirectionFree FlowKey::direction_free() const {
  if (is_cid() || !tuple_.sorts_reversed()) return {*this, false};
  return {from_tuple(tuple_.reversed()), true};
}

/// Platform-stable address hash feeding FlowKey::steer_key (exposed
/// for the steering tests' fixed vectors).
uint64_t stable_hash(const IpAddress& ip);

}  // namespace nnn::net

template <>
struct std::hash<nnn::net::FlowKey> {
  size_t operator()(const nnn::net::FlowKey& k) const noexcept {
    return static_cast<size_t>(nnn::util::mix64(k.steer_key()));
  }
};
