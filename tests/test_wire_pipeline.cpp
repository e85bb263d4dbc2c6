// Wire-level end-to-end: the packet the middlebox judges is the packet
// that came off real bytes, and tampering with those bytes can only
// ever downgrade service, never forge it.
#include <gtest/gtest.h>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "net/wire.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn {
namespace {

using util::kSecond;

uint16_t be16(const util::Bytes& b, size_t at) {
  return static_cast<uint16_t>(b[at] << 8 | b[at + 1]);
}

/// Rewrite the TCP/UDP checksum of a wire image to match its (possibly
/// mutated) bytes; an image whose headers no longer locate a segment is
/// left as it is. Checksums are not integrity: whoever can flip bits
/// on path can fix them too. So the mutation properties below re-seal
/// each image, and a mutation reaches the parser's later checks and
/// the cookie decoder instead of dying at the checksum.
void reseal_l4_checksum(util::Bytes& wire) {
  constexpr auto kTcp = static_cast<uint8_t>(net::L4Proto::kTcp);
  constexpr auto kUdp = static_cast<uint8_t>(net::L4Proto::kUdp);
  if (wire.empty()) return;
  size_t start = 0;
  size_t end = 0;
  size_t addr_at = 0;
  size_t addr_len = 0;
  uint8_t proto = 0;
  if (wire[0] >> 4 == 4 && wire.size() >= 20) {
    start = static_cast<size_t>(wire[0] & 0x0f) * 4;
    end = be16(wire, 2);
    addr_at = 12;
    addr_len = 4;
    proto = wire[9];
  } else if (wire[0] >> 4 == 6 && wire.size() >= 40) {
    start = 40;
    end = 40 + static_cast<size_t>(be16(wire, 4));
    addr_at = 8;
    addr_len = 16;
    proto = wire[6];
    if (proto == 0 && wire.size() >= 42) {  // hop-by-hop header
      proto = wire[40];
      start += (static_cast<size_t>(wire[41]) + 1) * 8;
    }
  } else {
    return;
  }
  if (start < 20 || end > wire.size() || start > end) return;
  size_t csum_at = 0;
  if (proto == kTcp && end - start >= 20) {
    csum_at = start + 16;
  } else if (proto == kUdp && end - start >= 8) {
    const size_t udp_len = be16(wire, start + 4);
    if (udp_len < 8 || udp_len > end - start) return;
    end = start + udp_len;
    csum_at = start + 6;
  } else {
    return;
  }
  uint32_t pseudo = proto + static_cast<uint32_t>(end - start);
  for (size_t i = addr_at; i < addr_at + 2 * addr_len; i += 2) {
    pseudo += be16(wire, i);
  }
  wire[csum_at] = 0;
  wire[csum_at + 1] = 0;
  uint16_t csum = net::internet_checksum(
      util::BytesView(wire).subspan(start, end - start), pseudo);
  if (csum == 0 && proto == kUdp) csum = 0xffff;
  wire[csum_at] = static_cast<uint8_t>(csum >> 8);
  wire[csum_at + 1] = static_cast<uint8_t>(csum);
}

class WirePipelineTest : public ::testing::Test {
 protected:
  WirePipelineTest() : clock_(1000 * kSecond), verifier_(clock_) {
    registry_.bind("Boost", dataplane::PriorityAction{0});
    descriptor_.cookie_id = 0xf00d;
    descriptor_.key.assign(32, 0x66);
    descriptor_.service_data = "Boost";
    verifier_.add_descriptor(descriptor_);
  }

  /// A cookie-bearing packet, chosen carrier, as real wire bytes.
  util::Bytes make_wire_packet(cookies::Transport transport,
                               uint16_t src_port) {
    cookies::CookieGenerator generator(descriptor_, clock_,
                                       src_port);  // distinct streams
    net::Packet p;
    p.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
    p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
    p.tuple.src_port = src_port;
    p.tuple.dst_port = 443;
    switch (transport) {
      case cookies::Transport::kHttpHeader: {
        p.tuple.proto = net::L4Proto::kTcp;
        net::http::Request r("GET", "/", "example.com");
        const std::string text = r.serialize();
        p.payload.assign(text.begin(), text.end());
        break;
      }
      case cookies::Transport::kUdpHeader:
        p.tuple.proto = net::L4Proto::kUdp;
        p.payload = {1, 2, 3};
        break;
      case cookies::Transport::kIpv6Extension:
        p.ipv6 = true;
        p.tuple.src_ip = net::IpAddress::parse("2001:db8::10").value();
        p.tuple.dst_ip = net::IpAddress::parse("2001:db8::20").value();
        p.tuple.proto = net::L4Proto::kUdp;
        break;
      default:
        ADD_FAILURE() << "unsupported carrier in this fixture";
    }
    EXPECT_TRUE(
        cookies::attach(p, generator.generate(), transport));
    return net::serialize(p);
  }

  util::ManualClock clock_;
  cookies::CookieVerifier verifier_;
  dataplane::ServiceRegistry registry_;
  cookies::CookieDescriptor descriptor_;
};

TEST_F(WirePipelineTest, HttpCookieSurvivesSerialization) {
  const auto wire = make_wire_packet(cookies::Transport::kHttpHeader,
                                     40001);
  auto parsed = net::parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  dataplane::Middlebox middlebox(clock_, verifier_, registry_);
  EXPECT_TRUE(middlebox.process(*parsed).action.has_value());
}

TEST_F(WirePipelineTest, UdpShimCookieSurvivesSerialization) {
  const auto wire = make_wire_packet(cookies::Transport::kUdpHeader,
                                     40002);
  auto parsed = net::parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  dataplane::Middlebox middlebox(clock_, verifier_, registry_);
  EXPECT_TRUE(middlebox.process(*parsed).action.has_value());
}

TEST_F(WirePipelineTest, Ipv6OptionCookieSurvivesSerialization) {
  const auto wire = make_wire_packet(cookies::Transport::kIpv6Extension,
                                     40003);
  auto parsed = net::parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->l3_cookie.has_value());
  dataplane::Middlebox middlebox(clock_, verifier_, registry_);
  EXPECT_TRUE(middlebox.process(*parsed).action.has_value());
}

using MutationCase = std::tuple<int, uint64_t>;  // transport, seed

class WireMutationProperty
    : public ::testing::TestWithParam<MutationCase> {};

TEST_P(WireMutationProperty, TamperedBytesNeverForgeService) {
  // Property: flip any bits anywhere in the wire image — the result
  // either fails to parse, loses its cookie, or fails verification.
  // It must never yield a *different valid* cookie (HMAC integrity),
  // and nothing may crash.
  const auto [transport_int, seed] = GetParam();
  const auto transport = static_cast<cookies::Transport>(transport_int);

  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 0xf00d;
  descriptor.key.assign(32, 0x66);
  descriptor.service_data = "Boost";
  verifier.add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock, seed);

  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
  p.tuple.src_port = 40010;
  p.tuple.dst_port = 443;
  if (transport == cookies::Transport::kIpv6Extension) {
    p.ipv6 = true;
    p.tuple.src_ip = net::IpAddress::parse("2001:db8::10").value();
    p.tuple.dst_ip = net::IpAddress::parse("2001:db8::20").value();
  }
  if (transport == cookies::Transport::kHttpHeader) {
    p.tuple.proto = net::L4Proto::kTcp;
    net::http::Request r("GET", "/", "example.com");
    const std::string text = r.serialize();
    p.payload.assign(text.begin(), text.end());
  } else {
    p.tuple.proto = net::L4Proto::kUdp;
    p.payload = {9, 9, 9};
  }
  const cookies::Cookie original = generator.generate();
  ASSERT_TRUE(cookies::attach(p, original, transport));
  const auto wire = net::serialize(p);

  util::Rng rng(seed * 7919 + 13);
  int decoded = 0;  // trials whose image still decoded a cookie stack
  for (int trial = 0; trial < 400; ++trial) {
    util::Bytes mutated = wire;
    const int flips = 1 + static_cast<int>(rng.next_u64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.next_u64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.next_u64(255));
    }
    reseal_l4_checksum(mutated);
    const auto parsed = net::parse_packet(util::BytesView(mutated));
    if (!parsed) continue;  // IP checksum/structure caught it
    const auto extracted = cookies::extract(*parsed);
    if (!extracted) continue;  // cookie destroyed
    ++decoded;
    for (const auto& cookie : extracted->stack) {
      if (cookie == original) continue;  // bits flipped elsewhere
      // A *modified* cookie must never verify.
      EXPECT_FALSE(verifier.verify(cookie).ok())
          << "forged cookie accepted at trial " << trial;
    }
  }
  EXPECT_GT(decoded, 0) << "no mutated image reached the cookie decoder";
}

INSTANTIATE_TEST_SUITE_P(
    Carriers, WireMutationProperty,
    ::testing::Values(
        MutationCase{static_cast<int>(cookies::Transport::kHttpHeader), 1},
        MutationCase{static_cast<int>(cookies::Transport::kHttpHeader), 2},
        MutationCase{static_cast<int>(cookies::Transport::kUdpHeader), 3},
        MutationCase{static_cast<int>(cookies::Transport::kUdpHeader), 4},
        MutationCase{static_cast<int>(cookies::Transport::kIpv6Extension),
                     5},
        MutationCase{static_cast<int>(cookies::Transport::kIpv6Extension),
                     6}));

TEST(WireFuzz, ParserNeverCrashesOnMutatedCorpus) {
  // Mutate structurally valid packets heavily and run the full parse +
  // extract path; nothing may crash or hang.
  util::ManualClock clock(1000 * kSecond);
  util::Rng rng(4242);
  cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 77;
  descriptor.key.assign(32, 0x12);
  cookies::CookieGenerator generator(descriptor, clock, 1);
  for (int trial = 0; trial < 1500; ++trial) {
    net::Packet p;
    const bool v6 = rng.chance(0.4);
    p.ipv6 = v6;
    if (v6) {
      p.tuple.src_ip = net::IpAddress::parse("2001:db8::1").value();
      p.tuple.dst_ip = net::IpAddress::parse("2001:db8::2").value();
    }
    p.tuple.proto = rng.chance(0.5) ? net::L4Proto::kUdp
                                    : net::L4Proto::kTcp;
    p.payload.resize(rng.next_u64(200));
    for (auto& b : p.payload) b = static_cast<uint8_t>(rng.next_u64());
    if (p.is_udp() && rng.chance(0.5)) {
      cookies::attach(p, generator.generate(),
                      cookies::Transport::kUdpHeader);
    }
    if (v6 && rng.chance(0.5)) {
      cookies::attach(p, generator.generate(),
                      cookies::Transport::kIpv6Extension);
    }
    auto wire = net::serialize(p);
    const int flips = static_cast<int>(rng.next_u64(12));
    for (int f = 0; f < flips && !wire.empty(); ++f) {
      wire[rng.next_u64(wire.size())] ^=
          static_cast<uint8_t>(rng.next_u64(256));
    }
    reseal_l4_checksum(wire);
    if (const auto parsed = net::parse_packet(util::BytesView(wire))) {
      (void)cookies::extract(*parsed);
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace nnn
