// IP addresses and five-tuples.
#include <gtest/gtest.h>

#include <unordered_set>

#include "net/five_tuple.h"
#include "net/flow_key.h"
#include "net/ip.h"

namespace nnn::net {
namespace {

TEST(IpAddress, V4RoundTrip) {
  const auto a = IpAddress::parse("192.168.1.10");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v4());
  EXPECT_EQ(a->to_string(), "192.168.1.10");
  EXPECT_EQ(a->v4_value(), 0xc0a8010au);
}

TEST(IpAddress, V4ConstructorsAgree) {
  EXPECT_EQ(IpAddress::v4(10, 0, 0, 1), IpAddress::v4(0x0a000001u));
  EXPECT_EQ(IpAddress::v4(10, 0, 0, 1).to_string(), "10.0.0.1");
}

TEST(IpAddress, V4ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("256.1.1.1").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.x").has_value());
  EXPECT_FALSE(IpAddress::parse("1..2.3").has_value());
}

TEST(IpAddress, V6ParseAndFormat) {
  const auto a = IpAddress::parse("2001:db8::1");
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->is_v6());
  EXPECT_EQ(a->to_string(), "2001:db8::1");

  const auto full =
      IpAddress::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, *a);

  EXPECT_EQ(IpAddress::parse("::")->to_string(), "::");
  EXPECT_EQ(IpAddress::parse("::1")->to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("fe80::")->to_string(), "fe80::");
}

TEST(IpAddress, V6ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("2001:db8").has_value());
  EXPECT_FALSE(IpAddress::parse("1:2:3:4:5:6:7:8:9").has_value());
  EXPECT_FALSE(IpAddress::parse("::1::2").has_value());
  EXPECT_FALSE(IpAddress::parse("12345::").has_value());
  EXPECT_FALSE(IpAddress::parse("g::1").has_value());
}

TEST(IpAddress, PrivateRanges) {
  EXPECT_TRUE(IpAddress::parse("10.1.2.3")->is_private());
  EXPECT_TRUE(IpAddress::parse("192.168.0.1")->is_private());
  EXPECT_TRUE(IpAddress::parse("172.16.0.1")->is_private());
  EXPECT_TRUE(IpAddress::parse("172.31.255.255")->is_private());
  EXPECT_FALSE(IpAddress::parse("172.32.0.1")->is_private());
  EXPECT_FALSE(IpAddress::parse("8.8.8.8")->is_private());
  EXPECT_TRUE(IpAddress::parse("fc00::1")->is_private());
  EXPECT_TRUE(IpAddress::parse("fd12::1")->is_private());
  EXPECT_FALSE(IpAddress::parse("2001:db8::1")->is_private());
}

TEST(IpAddress, HashDistinguishesFamilies) {
  // v4 0.0.0.1 and v6 ::1 share byte patterns but differ.
  const auto v4 = IpAddress::v4(0, 0, 0, 1);
  const auto v6 = IpAddress::parse("::1").value();
  EXPECT_NE(v4, v6);
  std::unordered_set<IpAddress> set{v4, v6};
  EXPECT_EQ(set.size(), 2u);
}

FiveTuple make_tuple() {
  FiveTuple t;
  t.src_ip = IpAddress::v4(192, 168, 1, 10);
  t.dst_ip = IpAddress::v4(151, 101, 0, 10);
  t.src_port = 40000;
  t.dst_port = 443;
  t.proto = L4Proto::kTcp;
  return t;
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const FiveTuple t = make_tuple();
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, BidiKeyIsDirectionless) {
  // FlowKey's direction-free form: both directions name one connection.
  const FiveTuple t = make_tuple();
  const FlowKey forward = FlowKey::from_tuple(t).direction_free().key;
  const FlowKey backward =
      FlowKey::from_tuple(t.reversed()).direction_free().key;
  EXPECT_EQ(forward, backward);
  std::unordered_set<FlowKey> set;
  set.insert(forward);
  set.insert(backward);
  EXPECT_EQ(set.size(), 1u);
}

TEST(FiveTuple, HashAndEquality) {
  std::unordered_set<FiveTuple> set;
  FiveTuple t = make_tuple();
  set.insert(t);
  set.insert(t.reversed());
  t.src_port = 40001;
  set.insert(t);
  EXPECT_EQ(set.size(), 3u);
}

TEST(FiveTuple, ToStringIsReadable) {
  EXPECT_EQ(make_tuple().to_string(),
            "tcp 192.168.1.10:40000 -> 151.101.0.10:443");
}

}  // namespace
}  // namespace nnn::net
