// Cookie wire format, signatures, and composition stacks.
#include <gtest/gtest.h>

#include "cookies/cookie.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "net/http.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::cookies {
namespace {

CookieDescriptor make_descriptor(CookieId id) {
  CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id + 3));
  d.service_data = "Boost";
  return d;
}

TEST(Cookie, EncodeDecodeRoundTrip) {
  util::ManualClock clock(12'345 * util::kSecond);
  CookieGenerator gen(make_descriptor(77), clock, 1);
  const Cookie c = gen.generate();
  const auto decoded = Cookie::decode(util::BytesView(c.encode()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, c);
}

TEST(Cookie, EncodedSizeIsFixed) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(1), clock, 2);
  EXPECT_EQ(gen.generate().encode().size(), kCookieWireSize);
}

TEST(Cookie, TextFormRoundTrips) {
  util::ManualClock clock(99 * util::kSecond);
  CookieGenerator gen(make_descriptor(42), clock, 3);
  const Cookie c = gen.generate();
  const std::string text = c.encode_text();
  // base64: printable, header-safe.
  for (const char ch : text) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '+' ||
                ch == '/' || ch == '=');
  }
  const auto decoded = Cookie::decode_text(text);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, c);
}

TEST(Cookie, GeneratorStampsClockTime) {
  util::ManualClock clock(1000 * util::kSecond);
  CookieGenerator gen(make_descriptor(5), clock, 4);
  EXPECT_EQ(gen.generate().timestamp, 1000u);
  clock.advance(30 * util::kSecond);
  EXPECT_EQ(gen.generate().timestamp, 1030u);
}

TEST(Cookie, GeneratorProducesUniqueUuids) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(6), clock, 5);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(gen.generate().uuid.to_string()).second);
  }
}

TEST(Cookie, SignatureBindsAllFields) {
  util::ManualClock clock(500 * util::kSecond);
  const auto descriptor = make_descriptor(7);
  CookieGenerator gen(descriptor, clock, 6);
  Cookie c = gen.generate();
  const auto valid_tag = c.compute_tag(util::BytesView(descriptor.key));
  EXPECT_EQ(c.signature, valid_tag);

  Cookie tampered_id = c;
  tampered_id.cookie_id ^= 1;
  EXPECT_NE(tampered_id.compute_tag(util::BytesView(descriptor.key)),
            c.signature);

  Cookie tampered_time = c;
  tampered_time.timestamp += 1;
  EXPECT_NE(tampered_time.compute_tag(util::BytesView(descriptor.key)),
            c.signature);
}

TEST(Cookie, DecodeRejectsBadMagicAndVersion) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(8), clock, 7);
  auto wire = gen.generate().encode();
  auto bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Cookie::decode(util::BytesView(bad_magic)).has_value());
  auto bad_version = wire;
  bad_version[3] = 0x7f;
  EXPECT_FALSE(Cookie::decode(util::BytesView(bad_version)).has_value());
}

TEST(Cookie, DecodeRejectsTruncationAndTrailing) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(9), clock, 8);
  auto wire = gen.generate().encode();
  EXPECT_FALSE(
      Cookie::decode(util::BytesView(wire.data(), wire.size() - 1))
          .has_value());
  wire.push_back(0);
  EXPECT_FALSE(Cookie::decode(util::BytesView(wire)).has_value());
}

TEST(Cookie, DecodeTextRejectsNonBase64) {
  EXPECT_FALSE(Cookie::decode_text("!!!not-base64!!!").has_value());
  EXPECT_FALSE(Cookie::decode_text("").has_value());
}

TEST(CookieStack, ComposeAndDecode) {
  util::ManualClock clock(0);
  CookieGenerator gen_a(make_descriptor(10), clock, 9);
  CookieGenerator gen_b(make_descriptor(11), clock, 10);
  CookieGenerator gen_c(make_descriptor(12), clock, 11);
  const std::vector<Cookie> stack = {gen_a.generate(), gen_b.generate(),
                                     gen_c.generate()};
  const auto decoded = decode_stack(util::BytesView(encode_stack(stack)));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, stack);
}

TEST(CookieStack, SingleCookieStackEqualsPlainEncoding) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(13), clock, 12);
  const Cookie c = gen.generate();
  EXPECT_EQ(encode_stack({c}), c.encode());
}

/// encode_stack_text() is the HTTP carrier's header value: read it
/// back the way the middlebox does, through the one carrier reader and
/// decode_stack().
TEST(CookieStack, TextRoundTrip) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(14), clock, 13);
  const std::vector<Cookie> stack = {gen.generate(), gen.generate()};
  net::Packet packet;
  const std::string request =
      net::http::Request("GET", "/page", "cnn.com").serialize();
  packet.payload.assign(request.begin(), request.end());
  ASSERT_TRUE(attach(packet, stack, Transport::kHttpHeader));
  const auto parsed = net::http::Request::parse(
      std::string(packet.payload.begin(), packet.payload.end()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header(net::http::kCookieHeader),
            encode_stack_text(stack));
  const auto raw = packet.cookie_bytes();
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->carrier, Transport::kHttpHeader);
  const auto decoded = decode_stack(raw->bytes());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, stack);
}

TEST(CookieStack, RejectsTruncatedFollower) {
  util::ManualClock clock(0);
  CookieGenerator gen(make_descriptor(15), clock, 14);
  auto wire = encode_stack({gen.generate(), gen.generate()});
  wire.resize(wire.size() - 5);
  EXPECT_FALSE(decode_stack(util::BytesView(wire)).has_value());
}

TEST(CookieTime, ConvertsMicrosecondsToSeconds) {
  EXPECT_EQ(to_cookie_time(0), 0u);
  EXPECT_EQ(to_cookie_time(999'999), 0u);
  EXPECT_EQ(to_cookie_time(1'000'000), 1u);
  EXPECT_EQ(to_cookie_time(5'500'000), 5u);
}

}  // namespace
}  // namespace nnn::cookies
