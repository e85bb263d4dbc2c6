// Cookie transports: attaching cookies to real traffic (§4.2 step 2).
//
// "We suggest supporting multiple choices; we can add it at the
// application layer (as an http header for unencrypted traffic or a
// TLS handshake extension for https traffic); at the transport layer
// (... a custom UDP-based header); or at the network layer (IPv6
// extension header)."
//
// attach() is the one writer of cookie carriers, each against the real
// codec for its layer:
//   kHttpHeader    -> X-Network-Cookie header in the HTTP/1.1 request
//   kTlsExtension  -> network-cookie extension in the TLS ClientHello
//   kIpv6Extension -> hop-by-hop option in the IPv6 header
//   kUdpHeader     -> magic-prefixed header at the start of the UDP
//                     payload (SPUD/QUIC-style shim)
//   kTcpOption     -> experimental TCP option; the 53-byte cookie
//                     exceeds the classic 40-byte option space, so the
//                     codec emits an Extended-Data-Offset option (the
//                     paper's "TCP long options" citation)
//   kQuicTransportParam -> transport parameter in the QUIC long-header
//                     handshake (net::QuicHeader::tp_cookie) — the
//                     encrypted-transport carrier, readable on path
//                     like a real Initial flight (DESIGN §5i)
// The one reader is net::Packet::cookie_bytes; extract() decodes what
// it finds. extract() is what a middlebox runs on the wire and must
// tolerate arbitrary payloads.
#pragma once

#include <optional>

#include "cookies/cookie.h"
#include "cookies/descriptor.h"
#include "net/packet.h"

namespace nnn::cookies {

/// Where a cookie was found in a packet.
struct ExtractedCookie {
  std::vector<Cookie> stack;  // one or more composed cookies
  Transport transport;
};

/// Attach `cookies` (a stack of >= 1) to the packet over `transport`.
/// Returns false when the carrier does not apply to this packet (e.g.
/// kIpv6Extension on an IPv4 packet, kHttpHeader on a payload that is
/// not an HTTP request). On false the packet is unchanged.
bool attach(net::Packet& packet, const std::vector<Cookie>& cookies,
            Transport transport);

/// Convenience for the common single-cookie case.
bool attach(net::Packet& packet, const Cookie& cookie, Transport transport);

/// Search the packet for a cookie on any carrier (the middlebox path:
/// "search for a potential cookie") and decode it. The search is
/// net::Packet::cookie_bytes; extract decodes the stack on the first
/// carrier it found and reports that carrier. A stack that fails to
/// decode yields nullopt: later carriers are not tried.
std::optional<ExtractedCookie> extract(const net::Packet& packet);

}  // namespace nnn::cookies
