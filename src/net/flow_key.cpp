#include "net/flow_key.h"

#include <cstring>

#include "util/fmt.h"

namespace nnn::net {

uint64_t stable_hash(const IpAddress& ip) {
  // Two fixed-width lane loads over the 16-byte storage (v4 uses the
  // first 4 bytes, rest zero) mixed with the family tag, so v4 x and
  // the v4-mapped v6 form of x stay distinct.
  const auto& b = ip.bytes();
  uint64_t lo = 0;
  uint64_t hi = 0;
  std::memcpy(&lo, b.data(), 8);
  std::memcpy(&hi, b.data() + 8, 8);
  return util::mix64(lo ^ util::mix64(hi ^ static_cast<uint64_t>(ip.family())));
}

uint64_t FlowKey::steer_key() const {
  if (is_cid()) {
    // The CID is already a uniformly drawn 64-bit name; steer_shard
    // applies its own mix64 on top.
    return cid_;
  }
  // Hash the direction-free form, so both directions steer alike.
  const FiveTuple t = tuple_.sorts_reversed() ? tuple_.reversed() : tuple_;
  const uint64_t ports = (static_cast<uint64_t>(t.src_port) << 32) |
                         (static_cast<uint64_t>(t.dst_port) << 16) |
                         static_cast<uint64_t>(t.proto);
  return util::mix64(stable_hash(t.src_ip) ^
                     util::mix64(stable_hash(t.dst_ip) ^ ports));
}

std::string FlowKey::to_string() const {
  if (is_cid()) return util::fmt("cid:{:x}", cid_);
  return tuple_.to_string();
}

}  // namespace nnn::net
