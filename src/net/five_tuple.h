// Flow identification.
//
// A flow is the classic 5-tuple. The paper's cookie granularity
// attribute defaults to "the flow (5-tuple) that a packet belongs to"
// (§4.3), the dataplane flow table keys on it, and the NAT rewrites it
// (which is exactly what breaks the OOB baseline in Fig. 6c).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "net/ip.h"

namespace nnn::net {

enum class L4Proto : uint8_t { kTcp = 6, kUdp = 17 };

std::string to_string(L4Proto p);

struct FiveTuple {
  IpAddress src_ip;
  IpAddress dst_ip;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  L4Proto proto = L4Proto::kTcp;

  /// The same flow seen from the opposite direction.
  FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, proto};
  }

  /// True when the destination endpoint (ip, port) sorts before the
  /// source: the order net::FlowKey::direction_free() swaps, so both
  /// directions of a flow coincide.
  bool sorts_reversed() const {
    return std::tie(dst_ip, dst_port) < std::tie(src_ip, src_port);
  }

  std::string to_string() const;

  friend auto operator<=>(const FiveTuple&, const FiveTuple&) = default;
};

}  // namespace nnn::net

template <>
struct std::hash<nnn::net::FiveTuple> {
  size_t operator()(const nnn::net::FiveTuple& t) const noexcept {
    const std::hash<nnn::net::IpAddress> ip_hash;
    size_t h = ip_hash(t.src_ip);
    h = h * 31 + ip_hash(t.dst_ip);
    h = h * 31 + t.src_port;
    h = h * 31 + t.dst_port;
    h = h * 31 + static_cast<size_t>(t.proto);
    return h;
  }
};
