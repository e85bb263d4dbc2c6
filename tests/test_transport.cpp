// Cookie transports: attach/extract across all six carriers, and the
// one carrier reader (net::Packet::cookie_bytes) under mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "net/http.h"
#include "net/tls.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::cookies {
namespace {

constexpr Transport kCarriers[] = {
    Transport::kHttpHeader, Transport::kTlsExtension,
    Transport::kIpv6Extension, Transport::kUdpHeader,
    Transport::kTcpOption, Transport::kQuicTransportParam};

CookieDescriptor make_descriptor() {
  CookieDescriptor d;
  d.cookie_id = 0xc0ffee;
  d.key.assign(32, 0x5a);
  d.service_data = "Boost";
  return d;
}

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : clock_(100 * util::kSecond),
        generator_(make_descriptor(), clock_, 99) {}

  net::Packet http_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 80;
    net::http::Request r("GET", "/page", "cnn.com");
    const std::string text = r.serialize();
    p.payload.assign(text.begin(), text.end());
    return p;
  }

  net::Packet tls_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 443;
    net::tls::ClientHello hello;
    hello.set_server_name("cnn.com");
    p.payload = hello.serialize_record();
    return p;
  }

  net::Packet udp_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kUdp;
    p.payload = {1, 2, 3};
    return p;
  }

  net::Packet tcp_packet() {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kTcp;
    p.tuple.dst_port = 443;
    p.payload = {0xde, 0xad};  // opaque application bytes
    return p;
  }

  net::Packet ipv6_packet() {
    net::Packet p;
    p.ipv6 = true;
    p.tuple.proto = net::L4Proto::kTcp;
    return p;
  }

  net::Packet quic_packet(bool long_header = true) {
    net::Packet p;
    p.tuple.proto = net::L4Proto::kUdp;
    p.tuple.dst_port = 443;
    net::QuicHeader q;
    q.long_header = long_header;
    q.scid = 0xc1d0;
    q.dcid = 0xc1d1;
    p.quic = q;
    p.payload = {9, 9, 9};  // opaque ciphertext stand-in
    return p;
  }

  /// A packet `transport` applies to.
  net::Packet packet_for(Transport transport) {
    switch (transport) {
      case Transport::kHttpHeader:
        return http_packet();
      case Transport::kTlsExtension:
        return tls_packet();
      case Transport::kIpv6Extension:
        return ipv6_packet();
      case Transport::kUdpHeader:
        return udp_packet();
      case Transport::kTcpOption:
        return tcp_packet();
      case Transport::kQuicTransportParam:
        return quic_packet();
    }
    return {};
  }

  util::ManualClock clock_;
  CookieGenerator generator_;
};

TEST_F(TransportTest, HttpHeaderCarriesCookie) {
  net::Packet p = http_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kHttpHeader));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kHttpHeader);
  EXPECT_EQ(extracted->stack.front(), c);
  // The header is real HTTP: the request still parses and keeps Host.
  const auto request = net::http::Request::parse(
      std::string(p.payload.begin(), p.payload.end()));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->host(), "cnn.com");
  EXPECT_TRUE(request->header(net::http::kCookieHeader).has_value());
}

TEST_F(TransportTest, TlsExtensionCarriesCookie) {
  net::Packet p = tls_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kTlsExtension));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kTlsExtension);
  EXPECT_EQ(extracted->stack.front(), c);
  // SNI intact.
  const auto hello =
      net::tls::ClientHello::parse_record(util::BytesView(p.payload));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->server_name().value(), "cnn.com");
}

TEST_F(TransportTest, Ipv6OptionCarriesCookie) {
  net::Packet p = ipv6_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kIpv6Extension));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kIpv6Extension);
  EXPECT_EQ(extracted->stack.front(), c);
}

TEST_F(TransportTest, UdpShimCarriesCookieAndPreservesPayload) {
  net::Packet p = udp_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kUdpHeader));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kUdpHeader);
  EXPECT_EQ(extracted->stack.front(), c);
  // The shim is a prefix and the original payload follows it intact:
  // magic | length u16 | stack | {1, 2, 3}.
  const util::Bytes stack = encode_stack({c});
  util::Bytes expected(net::kCookieShimMagic, net::kCookieShimMagic + 4);
  expected.push_back(static_cast<uint8_t>(stack.size() >> 8));
  expected.push_back(static_cast<uint8_t>(stack.size()));
  util::append(expected, util::BytesView(stack));
  util::append(expected, util::BytesView(util::Bytes{1, 2, 3}));
  EXPECT_EQ(p.payload, expected);
}

TEST_F(TransportTest, TcpOptionCarriesCookie) {
  net::Packet p = tcp_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kTcpOption));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kTcpOption);
  EXPECT_EQ(extracted->stack.front(), c);
  // The payload is untouched: the cookie lives in the header.
  EXPECT_EQ(p.payload, (util::Bytes{0xde, 0xad}));
}

TEST_F(TransportTest, TcpOptionRefusedOnUdp) {
  net::Packet p = udp_packet();
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kTcpOption));
}

TEST_F(TransportTest, QuicTransportParamCarriesCookie) {
  net::Packet p = quic_packet();
  const Cookie c = generator_.generate();
  ASSERT_TRUE(attach(p, c, Transport::kQuicTransportParam));
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  EXPECT_EQ(extracted->transport, Transport::kQuicTransportParam);
  EXPECT_EQ(extracted->stack.front(), c);
  // The ciphertext payload is untouched: the cookie is handshake
  // metadata, not payload.
  EXPECT_EQ(p.payload, (util::Bytes{9, 9, 9}));
}

TEST_F(TransportTest, QuicTransportParamRefusedPastHandshake) {
  // Transport parameters exist only in the handshake flight: a
  // short-header packet cannot carry one, and a non-QUIC packet has
  // nowhere to put one.
  net::Packet short_header = quic_packet(/*long_header=*/false);
  EXPECT_FALSE(attach(short_header, generator_.generate(),
                      Transport::kQuicTransportParam));
  net::Packet plain = udp_packet();
  EXPECT_FALSE(
      attach(plain, generator_.generate(), Transport::kQuicTransportParam));
}

TEST_F(TransportTest, CarrierMismatchLeavesPacketUntouched) {
  net::Packet p = udp_packet();
  const auto original = p.payload;
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kHttpHeader));
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kTlsExtension));
  EXPECT_FALSE(attach(p, generator_.generate(), Transport::kIpv6Extension));
  EXPECT_EQ(p.payload, original);

  net::Packet v4_tcp = http_packet();
  EXPECT_FALSE(
      attach(v4_tcp, generator_.generate(), Transport::kUdpHeader));
  EXPECT_FALSE(
      attach(v4_tcp, generator_.generate(), Transport::kIpv6Extension));
}

TEST_F(TransportTest, EmptyStackRefused) {
  net::Packet p = udp_packet();
  EXPECT_FALSE(attach(p, std::vector<Cookie>{}, Transport::kUdpHeader));
}

TEST_F(TransportTest, ExtractFindsNothingOnPlainTraffic) {
  net::Packet plain_http = http_packet();
  EXPECT_FALSE(extract(plain_http).has_value());
  net::Packet plain_tls = tls_packet();
  EXPECT_FALSE(extract(plain_tls).has_value());
  net::Packet plain_udp = udp_packet();
  EXPECT_FALSE(extract(plain_udp).has_value());
  net::Packet empty;
  EXPECT_FALSE(extract(empty).has_value());
}

TEST_F(TransportTest, ReattachReplacesExistingCookie) {
  net::Packet p = http_packet();
  const Cookie first = generator_.generate();
  const Cookie second = generator_.generate();
  attach(p, first, Transport::kHttpHeader);
  attach(p, second, Transport::kHttpHeader);
  const auto extracted = extract(p);
  ASSERT_TRUE(extracted.has_value());
  ASSERT_EQ(extracted->stack.size(), 1u);
  EXPECT_EQ(extracted->stack.front(), second);
}

TEST_F(TransportTest, StackOfCookiesRoundTripsOnEveryCarrier) {
  const std::vector<Cookie> stack = {generator_.generate(),
                                     generator_.generate()};
  for (const Transport transport : kCarriers) {
    net::Packet packet = packet_for(transport);
    ASSERT_TRUE(attach(packet, stack, transport)) << to_string(transport);
    const auto extracted = extract(packet);
    ASSERT_TRUE(extracted.has_value()) << to_string(transport);
    EXPECT_EQ(extracted->transport, transport);
    EXPECT_EQ(extracted->stack, stack);
  }
}

// --- Packet::cookie_bytes — the unified carrier accessor (PR 8) -----

/// Every carrier surfaces the SAME encoded stack bytes through
/// cookie_bytes(), tagged with where they rode, and the no-HMAC
/// cookie-id peek the RX demux steers by works on all of them.
TEST_F(TransportTest, CookieBytesFindsEveryCarrier) {
  const Cookie c = generator_.generate();
  const util::Bytes encoded = encode_stack({c});
  for (const net::CookieCarrier carrier : kCarriers) {
    net::Packet packet = packet_for(carrier);
    ASSERT_TRUE(attach(packet, c, carrier));
    const auto raw = packet.cookie_bytes();
    ASSERT_TRUE(raw.has_value())
        << "carrier " << to_string(carrier) << " not found";
    EXPECT_EQ(raw->carrier, carrier);
    EXPECT_TRUE(util::equal(raw->bytes(), util::BytesView(encoded)))
        << "carrier bytes differ from encode_stack";
    EXPECT_EQ(peek_cookie_id(raw->bytes()), c.cookie_id);
  }
  net::Packet plain = udp_packet();
  EXPECT_FALSE(plain.cookie_bytes().has_value());
}

/// Extraction precedence is fixed: cheapest carrier first. A packet
/// wearing several cookies answers with the binary fixed-offset one
/// before anything that needs a payload parse.
TEST_F(TransportTest, CookieBytesPrecedenceOrder) {
  const Cookie c = generator_.generate();

  // l3 beats l4: an IPv6+TCP packet with both answers kIpv6Extension.
  net::Packet v6 = ipv6_packet();
  ASSERT_TRUE(attach(v6, c, Transport::kIpv6Extension));
  ASSERT_TRUE(attach(v6, c, Transport::kTcpOption));
  ASSERT_EQ(v6.cookie_bytes()->carrier, net::CookieCarrier::kIpv6Extension);
  v6.l3_cookie.reset();
  ASSERT_EQ(v6.cookie_bytes()->carrier, net::CookieCarrier::kTcpOption);

  // TLS payload + TCP option: the header option wins (no parse needed).
  net::Packet tls = tls_packet();
  ASSERT_TRUE(attach(tls, c, Transport::kTlsExtension));
  ASSERT_TRUE(attach(tls, c, Transport::kTcpOption));
  ASSERT_EQ(tls.cookie_bytes()->carrier, net::CookieCarrier::kTcpOption);
  tls.l4_cookie.reset();
  ASSERT_EQ(tls.cookie_bytes()->carrier, net::CookieCarrier::kTlsExtension);

  // QUIC transport parameter sits with the binary carriers: it beats
  // the UDP shim (fixed payload offset) on the same handshake packet,
  // and the l4 direct field would beat it if a QUIC packet could have
  // one. With the parameter gone the shim is found again.
  net::Packet quic = quic_packet();
  ASSERT_TRUE(attach(quic, c, Transport::kQuicTransportParam));
  ASSERT_TRUE(attach(quic, c, Transport::kUdpHeader));
  ASSERT_EQ(quic.cookie_bytes()->carrier,
            net::CookieCarrier::kQuicTransportParam);
  quic.quic->tp_cookie.clear();
  ASSERT_EQ(quic.cookie_bytes()->carrier, net::CookieCarrier::kUdpHeader);
}

/// The text carriers must copy out (TLS extension body, base64-decoded
/// HTTP header): their view is backed by RawCookie::storage, not the
/// payload, so it stays valid if the payload reallocates.
TEST_F(TransportTest, CookieBytesTextCarriersAreStorageBacked) {
  const Cookie c = generator_.generate();
  for (net::Packet p : {tls_packet(), http_packet()}) {
    const Transport t = p.tuple.dst_port == 443 ? Transport::kTlsExtension
                                                : Transport::kHttpHeader;
    ASSERT_TRUE(attach(p, c, t));
    const auto raw = p.cookie_bytes();
    ASSERT_TRUE(raw.has_value());
    ASSERT_FALSE(raw->storage.empty());
    EXPECT_EQ(raw->bytes().data(), raw->storage.data());
    // And the storage holds a decodable stack.
    const auto stack = decode_stack(raw->bytes());
    ASSERT_TRUE(stack.has_value());
    EXPECT_EQ(stack->front(), c);
  }
}

TEST_F(TransportTest, MalformedCookieBlobIgnored) {
  // An X-Network-Cookie header with junk does not yield a cookie.
  net::Packet p = http_packet();
  net::http::Request r("GET", "/", "cnn.com");
  r.add_header(std::string(net::http::kCookieHeader), "not-base64!!");
  const std::string text = r.serialize();
  p.payload.assign(text.begin(), text.end());
  EXPECT_FALSE(extract(p).has_value());
}

// --- Mutating the carrier bytes -------------------------------------

using CarrierCase = std::tuple<Transport, uint64_t>;  // carrier, seed

class CarrierMutation : public TransportTest,
                        public ::testing::WithParamInterface<CarrierCase> {
 protected:
  /// The bytes `transport` owns on `p`: the payload for the carriers
  /// that ride in it (HTTP, TLS, UDP shim), else the header field that
  /// holds the stack.
  static util::Bytes& carrier_bytes(net::Packet& p, Transport transport) {
    switch (transport) {
      case Transport::kIpv6Extension:
        return *p.l3_cookie;
      case Transport::kTcpOption:
        return *p.l4_cookie;
      case Transport::kQuicTransportParam:
        return p.quic->tp_cookie;
      default:
        return p.payload;
    }
  }
};

/// Property: flip 1-4 bytes of a carrier's own bytes, or truncate them,
/// and the one reader plus the stack decoder either find nothing or
/// yield cookies that are the originals or fail verification. Nothing
/// may crash (the suite runs under ASan in CI).
TEST_P(CarrierMutation, MutatedCarrierNeverYieldsAForgedCookie) {
  const auto [transport, seed] = GetParam();
  CookieVerifier verifier(clock_);
  verifier.add_descriptor(make_descriptor());
  CookieGenerator generator(make_descriptor(), clock_, seed);
  const std::vector<Cookie> originals = {generator.generate(),
                                         generator.generate()};
  net::Packet base = packet_for(transport);
  ASSERT_TRUE(attach(base, originals, transport));

  util::Rng rng(seed * 7919 + static_cast<uint64_t>(transport));
  int decoded = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    net::Packet p = base;
    util::Bytes& bytes = carrier_bytes(p, transport);
    if (rng.chance(0.25)) {
      bytes.resize(rng.next_u64(bytes.size()));
    } else {
      const int flips = 1 + static_cast<int>(rng.next_u64(4));
      for (int f = 0; f < flips; ++f) {
        bytes[rng.next_u64(bytes.size())] ^=
            static_cast<uint8_t>(1 + rng.next_u64(255));
      }
    }
    const auto extracted = extract(p);
    if (!extracted) continue;
    ++decoded;
    for (const Cookie& cookie : extracted->stack) {
      if (cookie == originals[0] || cookie == originals[1]) continue;
      EXPECT_FALSE(verifier.verify(cookie).ok())
          << "forged cookie accepted at trial " << trial;
    }
  }
  // The mutations must reach the decoder, not just the carrier search.
  EXPECT_GT(decoded, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Carriers, CarrierMutation,
    ::testing::Combine(::testing::ValuesIn(kCarriers),
                       ::testing::Values(uint64_t{1}, uint64_t{2})),
    [](const ::testing::TestParamInfo<CarrierCase>& info) {
      std::string name = to_string(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nnn::cookies
