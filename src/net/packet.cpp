#include "net/packet.h"

#include <string_view>

#include "net/http.h"
#include "net/tls.h"
#include "util/base64.h"
#include "util/fmt.h"

namespace nnn::net {

std::optional<RawCookie> Packet::cookie_bytes() const {
  if (l3_cookie) {
    return RawCookie{CookieCarrier::kIpv6Extension,
                     util::BytesView(*l3_cookie), {}};
  }
  if (l4_cookie) {
    return RawCookie{CookieCarrier::kTcpOption, util::BytesView(*l4_cookie),
                     {}};
  }
  if (quic && quic->long_header && !quic->tp_cookie.empty()) {
    return RawCookie{CookieCarrier::kQuicTransportParam,
                     util::BytesView(quic->tp_cookie),
                     {}};
  }
  if (is_udp() && payload.size() >= 6 &&
      util::equal(util::BytesView(payload.data(), 4),
                  util::BytesView(kCookieShimMagic, 4))) {
    // Shim layout: magic(4) | length u16 | stack bytes | payload.
    util::ByteReader r{util::BytesView(payload)};
    r.skip(4);
    const auto len = r.u16();
    if (len && *len <= r.remaining()) {
      RawCookie raw;
      raw.carrier = CookieCarrier::kUdpHeader;
      raw.view = *r.view(*len);
      return raw;
    }
  }
  if (const auto hello =
          tls::ClientHello::parse_record(util::BytesView(payload))) {
    if (auto blob = hello->cookie()) {
      RawCookie raw;
      raw.carrier = CookieCarrier::kTlsExtension;
      raw.storage = std::move(*blob);
      raw.view = util::BytesView(raw.storage);
      return raw;
    }
  }
  if (!payload.empty()) {
    // Viewed in place: the parsed Request owns what it keeps.
    const std::string_view text(
        reinterpret_cast<const char*>(payload.data()), payload.size());
    if (const auto request = http::Request::parse(text)) {
      if (const auto header = request->header(http::kCookieHeader)) {
        if (auto decoded = util::base64_decode(*header)) {
          RawCookie raw;
          raw.carrier = CookieCarrier::kHttpHeader;
          raw.storage = std::move(*decoded);
          raw.view = util::BytesView(raw.storage);
          return raw;
        }
      }
    }
  }
  return std::nullopt;
}

uint32_t header_overhead(const Packet& p) {
  uint32_t overhead = p.ipv6 ? 40u : 20u;
  overhead += p.is_tcp() ? 20u : 8u;
  if (p.quic) {
    // Short header: flags(1) + dcid(8). Long header: flags(1) +
    // version(4) + two length-prefixed CIDs (9 each) + the transport
    // parameter when present (TLV, 4-byte framing).
    overhead += p.quic->long_header
                    ? 23u + (p.quic->tp_cookie.empty()
                                 ? 0u
                                 : 4u + static_cast<uint32_t>(
                                            p.quic->tp_cookie.size()))
                    : 9u;
  }
  if (p.l3_cookie) {
    // Option TLV plus padding to 8-byte units (IPv6 HBH).
    overhead += static_cast<uint32_t>(2 + p.l3_cookie->size() + 7) / 8 * 8;
  }
  if (p.l4_cookie && p.is_tcp()) {
    // EDO option (4) + cookie option TLV, padded to 4-byte units.
    overhead += static_cast<uint32_t>(4 + 2 + p.l4_cookie->size() + 3) /
                4 * 4;
  }
  return overhead;
}

uint32_t Packet::size() const {
  if (wire_size != 0) return wire_size;
  return header_overhead(*this) + static_cast<uint32_t>(payload.size());
}

std::string Packet::summary() const {
  return util::fmt("{}{}{}{} len={}", tuple.to_string(),
                     syn ? " SYN" : "", ack ? " ACK" : "", fin ? " FIN" : "",
                     size());
}

}  // namespace nnn::net
