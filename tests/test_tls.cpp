// TLS ClientHello codec with SNI and the network-cookie extension.
#include <gtest/gtest.h>

#include "net/tls.h"
#include "util/rng.h"

namespace nnn::net::tls {
namespace {

TEST(ClientHello, RecordRoundTrip) {
  ClientHello hello;
  hello.random.fill(0xab);
  hello.session_id = {1, 2, 3};
  hello.cipher_suites = {0x1301, 0x1302};
  hello.set_server_name("video.example.com");
  const auto parsed = ClientHello::parse_record(
      util::BytesView(hello.serialize_record()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->legacy_version, hello.legacy_version);
  EXPECT_EQ(parsed->random, hello.random);
  EXPECT_EQ(parsed->session_id, hello.session_id);
  EXPECT_EQ(parsed->cipher_suites, hello.cipher_suites);
  EXPECT_EQ(parsed->server_name().value(), "video.example.com");
}

TEST(ClientHello, CookieExtensionRoundTrip) {
  ClientHello hello;
  hello.set_server_name("example.com");
  const util::Bytes cookie = {9, 8, 7, 6, 5};
  hello.set_cookie(util::BytesView(cookie));
  const auto parsed = ClientHello::parse_record(
      util::BytesView(hello.serialize_record()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cookie().value(), cookie);
  // SNI still intact next to the custom extension.
  EXPECT_EQ(parsed->server_name().value(), "example.com");
}

TEST(ClientHello, SetCookieReplacesExisting) {
  ClientHello hello;
  hello.set_cookie(util::BytesView(util::Bytes{1}));
  hello.set_cookie(util::BytesView(util::Bytes{2, 3}));
  EXPECT_EQ(hello.cookie().value(), (util::Bytes{2, 3}));
  EXPECT_EQ(hello.extensions.size(), 1u);
}

TEST(ClientHello, NoExtensionsParses) {
  ClientHello hello;
  hello.extensions.clear();
  const auto parsed = ClientHello::parse_record(
      util::BytesView(hello.serialize_record()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->server_name().has_value());
  EXPECT_FALSE(parsed->cookie().has_value());
}

TEST(ClientHello, SetServerNameReplaces) {
  ClientHello hello;
  hello.set_server_name("a.example");
  hello.set_server_name("b.example");
  EXPECT_EQ(hello.server_name().value(), "b.example");
  EXPECT_EQ(hello.extensions.size(), 1u);
}

TEST(ClientHello, RejectsNonHandshakeRecord) {
  ClientHello hello;
  auto record = hello.serialize_record();
  record[0] = 23;  // application_data
  EXPECT_FALSE(
      ClientHello::parse_record(util::BytesView(record)).has_value());
}

TEST(ClientHello, RejectsTruncation) {
  ClientHello hello;
  hello.set_server_name("example.com");
  const auto record = hello.serialize_record();
  for (size_t keep = 0; keep < record.size(); keep += 7) {
    EXPECT_FALSE(ClientHello::parse_record(
                     util::BytesView(record.data(), keep))
                     .has_value())
        << "keep=" << keep;
  }
}

TEST(ClientHello, GarbageNeverCrashes) {
  util::Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    util::Bytes junk(rng.next_u64(120));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    (void)ClientHello::parse_record(util::BytesView(junk));
  }
  SUCCEED();
}

}  // namespace
}  // namespace nnn::net::tls
