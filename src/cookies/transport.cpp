#include "cookies/transport.h"

#include "net/http.h"
#include "net/tls.h"
#include "util/bytes.h"

namespace nnn::cookies {

namespace {

using util::Bytes;
using util::BytesView;

bool attach_http(net::Packet& packet, const std::vector<Cookie>& cookies) {
  const std::string text(packet.payload.begin(), packet.payload.end());
  auto request = net::http::Request::parse(text);
  if (!request) return false;
  request->remove_header(net::http::kCookieHeader);
  request->add_header(std::string(net::http::kCookieHeader),
                      encode_stack_text(cookies));
  const std::string out = request->serialize();
  packet.payload.assign(out.begin(), out.end());
  packet.wire_size = 0;  // recompute from payload
  return true;
}

bool attach_tls(net::Packet& packet, const std::vector<Cookie>& cookies) {
  auto hello = net::tls::ClientHello::parse_record(BytesView(packet.payload));
  if (!hello) return false;
  hello->set_cookie(BytesView(encode_stack(cookies)));
  packet.payload = hello->serialize_record();
  packet.wire_size = 0;
  return true;
}

bool attach_ipv6(net::Packet& packet, const std::vector<Cookie>& cookies) {
  if (!packet.ipv6) return false;
  packet.l3_cookie = encode_stack(cookies);
  return true;
}

bool attach_tcp_option(net::Packet& packet,
                       const std::vector<Cookie>& cookies) {
  if (!packet.is_tcp()) return false;
  packet.l4_cookie = encode_stack(cookies);
  return true;
}

bool attach_udp(net::Packet& packet, const std::vector<Cookie>& cookies) {
  if (!packet.is_udp()) return false;
  // Shim layout: magic(4) | length u16 | stack bytes | original payload.
  const Bytes stack = encode_stack(cookies);
  Bytes shim;
  util::ByteWriter w(shim);
  w.raw(BytesView(net::kCookieShimMagic, 4));
  w.u16(static_cast<uint16_t>(stack.size()));
  w.raw(BytesView(stack));
  shim.insert(shim.end(), packet.payload.begin(), packet.payload.end());
  packet.payload = std::move(shim);
  packet.wire_size = 0;
  return true;
}

bool attach_quic_tp(net::Packet& packet,
                    const std::vector<Cookie>& cookies) {
  // Only the long-header handshake flight can carry transport
  // parameters; short-header packets are past the handshake.
  if (!packet.quic || !packet.quic->long_header) return false;
  packet.quic->tp_cookie = encode_stack(cookies);
  packet.wire_size = 0;
  return true;
}

}  // namespace

bool attach(net::Packet& packet, const std::vector<Cookie>& cookies,
            Transport transport) {
  if (cookies.empty()) return false;
  switch (transport) {
    case Transport::kHttpHeader:
      return attach_http(packet, cookies);
    case Transport::kTlsExtension:
      return attach_tls(packet, cookies);
    case Transport::kIpv6Extension:
      return attach_ipv6(packet, cookies);
    case Transport::kUdpHeader:
      return attach_udp(packet, cookies);
    case Transport::kTcpOption:
      return attach_tcp_option(packet, cookies);
    case Transport::kQuicTransportParam:
      return attach_quic_tp(packet, cookies);
  }
  return false;
}

bool attach(net::Packet& packet, const Cookie& cookie, Transport transport) {
  return attach(packet, std::vector<Cookie>{cookie}, transport);
}

std::optional<ExtractedCookie> extract(const net::Packet& packet) {
  // The carrier precedence (cheapest first) is owned by
  // net::Packet::cookie_bytes — one search shared with the hardware
  // pre-filter and the RX demux peek; this layer only decodes.
  const auto raw = packet.cookie_bytes();
  if (!raw) return std::nullopt;
  auto stack = decode_stack(raw->bytes());
  if (!stack) return std::nullopt;
  return ExtractedCookie{std::move(*stack), raw->carrier};
}

}  // namespace nnn::cookies
