#include "net/five_tuple.h"

#include "util/fmt.h"

namespace nnn::net {

std::string to_string(L4Proto p) {
  switch (p) {
    case L4Proto::kTcp:
      return "tcp";
    case L4Proto::kUdp:
      return "udp";
  }
  return "?";
}

std::string FiveTuple::to_string() const {
  return util::fmt("{} {}:{} -> {}:{}", net::to_string(proto),
                     src_ip.to_string(), src_port, dst_ip.to_string(),
                     dst_port);
}

}  // namespace nnn::net
