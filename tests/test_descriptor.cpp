// Cookie descriptors: attributes, expiry, JSON (control-plane) forms.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "cookies/delegation.h"
#include "cookies/descriptor.h"

namespace nnn::cookies {
namespace {

CookieDescriptor sample_descriptor() {
  CookieDescriptor d;
  d.cookie_id = 0x1122334455667788ULL;
  d.key = {1, 2, 3, 4, 5, 6, 7, 8};
  d.service_data = "Boost";
  d.attributes.granularity = Granularity::kFlow;
  d.attributes.shared = true;
  d.attributes.ack_cookie = true;
  d.attributes.transports = {Transport::kHttpHeader,
                             Transport::kTlsExtension};
  d.attributes.expires_at = 123'456'789;
  d.attributes.extra["region"] = "us";
  return d;
}

TEST(Descriptor, JsonRoundTripWithKey) {
  const auto d = sample_descriptor();
  const auto parsed = CookieDescriptor::from_json(d.to_json(true));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, d);
}

TEST(Descriptor, AuditFormOmitsKey) {
  const auto d = sample_descriptor();
  const auto audit = d.to_json(/*include_key=*/false);
  EXPECT_EQ(audit.find("key"), nullptr);
  // The audit form still identifies the descriptor; 64-bit ids travel
  // as strings because JSON numbers are doubles.
  EXPECT_EQ(audit.find("cookie_id")->as_string(),
            std::to_string(d.cookie_id));
}

TEST(Descriptor, FullRange64BitIdSurvivesJson) {
  CookieDescriptor d = sample_descriptor();
  d.cookie_id = 0xfedcba9876543210ULL;  // would not fit a double
  const auto parsed = CookieDescriptor::from_json(d.to_json(true));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cookie_id, d.cookie_id);
}

TEST(Descriptor, ExpiryLogic) {
  CookieDescriptor d = sample_descriptor();
  d.attributes.expires_at = 1000;
  EXPECT_FALSE(d.expired(999));
  EXPECT_TRUE(d.expired(1000));
  EXPECT_TRUE(d.expired(2000));
  d.attributes.expires_at.reset();
  EXPECT_FALSE(d.expired(INT64_MAX));
}

TEST(Attributes, DefaultsMatchPaper) {
  const Attributes a;
  EXPECT_EQ(a.granularity, Granularity::kFlow);  // "By default, a
                                                 // cookie characterizes
                                                 // the flow"
  EXPECT_TRUE(a.reverse_flow);
  EXPECT_FALSE(a.shared);
  EXPECT_FALSE(a.ack_cookie);
  EXPECT_FALSE(a.delivery_guarantee);
  EXPECT_TRUE(a.transports.empty());
}

TEST(Attributes, TransportRestriction) {
  Attributes a;
  EXPECT_TRUE(a.allows_transport(Transport::kUdpHeader));  // empty = any
  a.transports = {Transport::kHttpHeader};
  EXPECT_TRUE(a.allows_transport(Transport::kHttpHeader));
  EXPECT_FALSE(a.allows_transport(Transport::kUdpHeader));
}

TEST(Attributes, JsonRejectsBadValues) {
  EXPECT_FALSE(Attributes::from_json(json::Value(3)).has_value());
  const auto bad_gran = json::parse(R"({"granularity":"nonsense"})");
  EXPECT_FALSE(Attributes::from_json(*bad_gran).has_value());
  const auto bad_transport = json::parse(R"({"transports":["smoke"]})");
  EXPECT_FALSE(Attributes::from_json(*bad_transport).has_value());
}

TEST(Descriptor, FromJsonRejectsMissingId) {
  const auto v = json::parse(R"({"service_data":"x"})");
  EXPECT_FALSE(CookieDescriptor::from_json(*v).has_value());
}

// One carrier enum: the cookie layer's name for the packet model's.
static_assert(std::is_same_v<Transport, net::CookieCarrier>);

TEST(Descriptor, TransportNamesRoundTrip) {
  // Each carrier's value is the byte the descriptor sync codec writes,
  // so the values are pinned here as well as the names.
  const std::pair<Transport, int> carriers[] = {
      {Transport::kHttpHeader, 0},    {Transport::kTlsExtension, 1},
      {Transport::kIpv6Extension, 2}, {Transport::kUdpHeader, 3},
      {Transport::kTcpOption, 4},     {Transport::kQuicTransportParam, 5}};
  for (const auto& [t, value] : carriers) {
    EXPECT_EQ(static_cast<int>(t), value) << to_string(t);
    EXPECT_EQ(transport_from_string(to_string(t)), t);
  }
  EXPECT_FALSE(transport_from_string("carrier-pigeon").has_value());
}

TEST(Delegation, SharedDescriptorsDelegate) {
  auto d = sample_descriptor();
  d.attributes.shared = true;
  const auto delegated = delegate_descriptor(d, "alice", "cdn.example");
  ASSERT_TRUE(delegated.has_value());
  EXPECT_EQ(delegated->descriptor, d);
  EXPECT_EQ(delegated->delegated_by, "alice");
  EXPECT_EQ(delegated->delegated_to, "cdn.example");
}

TEST(Delegation, NonSharedDescriptorsRefuse) {
  auto d = sample_descriptor();
  d.attributes.shared = false;
  EXPECT_FALSE(delegate_descriptor(d, "alice", "cdn.example").has_value());
}

TEST(Delegation, AckByEchoReturnsSameCookie) {
  util::ManualClock clock(50 * util::kSecond);
  auto d = sample_descriptor();
  d.attributes.expires_at.reset();
  CookieGenerator gen(d, clock, 1);
  const Cookie c = gen.generate();
  EXPECT_EQ(ack_by_echo(c), c);
}

TEST(Delegation, AckByMintIsFreshButSameDescriptor) {
  util::ManualClock clock(50 * util::kSecond);
  auto d = sample_descriptor();
  d.attributes.expires_at.reset();
  CookieGenerator gen(d, clock, 2);
  const Cookie first = gen.generate();
  const Cookie ack = ack_by_mint(gen);
  EXPECT_EQ(ack.cookie_id, first.cookie_id);
  EXPECT_NE(ack.uuid, first.uuid);
}

}  // namespace
}  // namespace nnn::cookies
