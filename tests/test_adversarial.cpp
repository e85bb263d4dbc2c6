// Adversarial / failure-injection scenarios: floods, memory bounds,
// malformed control-plane input, and hostile clients.
#include <gtest/gtest.h>

#include "boost_lane/agent.h"
#include "controlplane/local_subscriber.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "server/cookie_server.h"
#include "server/json_api.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn {
namespace {

using util::kSecond;

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 13 + 5));
  d.service_data = "Boost";
  return d;
}

TEST(Adversarial, SameUuidFloodStaysBounded) {
  // An attacker replays one captured cookie at line rate: the replay
  // cache must hold exactly one entry for it, not grow.
  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  const auto descriptor = make_descriptor(1);
  verifier.add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock, 1);
  const auto cookie = generator.generate();
  EXPECT_TRUE(verifier.verify(cookie).ok());
  for (int i = 0; i < 100'000; ++i) {
    EXPECT_EQ(verifier.verify(cookie).status,
              cookies::VerifyStatus::kReplayed);
  }
  EXPECT_EQ(verifier.stats().count(cookies::VerifyStatus::kReplayed),
            100'000u);
}

TEST(Adversarial, RandomIdFloodOnlyCostsLookups) {
  // A flood of cookies with random unknown ids: every one is rejected
  // at the cheapest check, no replay-cache state is created.
  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  verifier.add_descriptor(make_descriptor(1));
  util::Rng rng(9);
  cookies::CookieGenerator generator(make_descriptor(1), clock, 2);
  for (int i = 0; i < 10'000; ++i) {
    auto cookie = generator.generate();
    cookie.cookie_id = rng.next_u64() | 0x100;  // never id 1
    EXPECT_EQ(verifier.verify(cookie).status,
              cookies::VerifyStatus::kUnknownId);
  }
  EXPECT_EQ(verifier.stats().count(cookies::VerifyStatus::kUnknownId),
            10'000u);
  EXPECT_EQ(verifier.stats().count(cookies::VerifyStatus::kOk), 0u);
}

TEST(Adversarial, ForgedSignatureFloodNeverVerifies) {
  // Brute-force-ish tag guessing: random signatures on an otherwise
  // valid cookie never pass (at 2^-128 per try the test would need
  // longer than the universe; we assert zero hits in 50k tries).
  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  const auto descriptor = make_descriptor(3);
  verifier.add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock, 3);
  util::Rng rng(11);
  auto cookie = generator.generate();
  for (int i = 0; i < 50'000; ++i) {
    for (auto& b : cookie.signature) {
      b = static_cast<uint8_t>(rng.next_u64());
    }
    EXPECT_EQ(verifier.verify(cookie).status,
              cookies::VerifyStatus::kBadSignature);
  }
}

TEST(Adversarial, StolenDescriptorIsRevocable) {
  // The §4.5 leak scenario: "revocability is also helpful in case a
  // descriptor gets leaked or an application gets compromised."
  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  controlplane::DescriptorLog descriptor_log;
  server::CookieServer server(clock, 13, &descriptor_log);
  controlplane::LocalSubscriber subscriber(descriptor_log, verifier);
  server::ServiceOffer offer;
  offer.name = "Boost";
  offer.service_data = "Boost";
  server.add_service(offer);

  const auto grant = server.acquire("Boost", "victim");
  // The thief holds a full copy of the descriptor...
  cookies::CookieGenerator thief(*grant.descriptor, clock, 4);
  EXPECT_TRUE(verifier.verify(thief.generate()).ok());
  // ...until the victim notices and revokes.
  server.revoke(grant.descriptor->cookie_id, "leaked");
  EXPECT_EQ(verifier.verify(thief.generate()).status,
            cookies::VerifyStatus::kDescriptorRevoked);
}

TEST(Adversarial, JsonApiSurvivesGarbageFlood) {
  util::ManualClock clock(1000 * kSecond);
  server::CookieServer server(clock, 17, nullptr);
  server::JsonApi api(server);
  util::Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    std::string junk(rng.next_u64(120), '\0');
    for (auto& c : junk) c = static_cast<char>(rng.next_u64(256));
    const std::string response = api.handle_text(junk);
    // Every response is valid JSON with ok=false or ok=true.
    const auto parsed = json::parse(response);
    ASSERT_TRUE(parsed.has_value()) << "response not JSON: " << response;
    EXPECT_TRUE(parsed->find("ok") != nullptr);
  }
}

TEST(Adversarial, MiddleboxSurvivesHostilePayloadMix) {
  // Random payloads, some resembling carriers, across many flows:
  // process() must never throw and the flow table must stay bounded
  // by the idle timeout.
  util::ManualClock clock(1000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  dataplane::ServiceRegistry registry;
  dataplane::Middlebox middlebox(clock, verifier, registry);
  util::Rng rng(23);
  for (int i = 0; i < 20'000; ++i) {
    net::Packet p;
    p.tuple.src_ip = net::IpAddress::v4(10, 0, 0, 1);
    p.tuple.src_port = static_cast<uint16_t>(rng.next_u64(65536));
    p.tuple.dst_port = static_cast<uint16_t>(rng.next_u64(65536));
    p.tuple.proto =
        rng.chance(0.5) ? net::L4Proto::kUdp : net::L4Proto::kTcp;
    p.payload.resize(rng.next_u64(100));
    for (auto& b : p.payload) b = static_cast<uint8_t>(rng.next_u64());
    if (rng.chance(0.1)) {
      // Plant the UDP shim magic with garbage behind it.
      p.payload.insert(p.payload.begin(),
                       {'N', 'C', 'K', 'U', 0x00, 0x20});
    }
    clock.advance(util::kMillisecond);
    EXPECT_NO_THROW(middlebox.process(p));
  }
  // Bounded by idle expiry (60 s window at 1000 flows/s).
  EXPECT_LT(middlebox.flows().size(), 70'000u);
}

TEST(Adversarial, AgentHandlesServerOutage) {
  // The well-known server refuses everything: the agent degrades
  // gracefully (no descriptor, no cookies, no crash) and the user's
  // traffic continues best-effort.
  util::ManualClock clock(1000 * kSecond);
  server::CookieServer empty_server(clock, 19, nullptr);  // no services
  server::JsonApi api(empty_server);
  boost_lane::BoostAgent agent(clock, api, "home", 3);
  EXPECT_FALSE(agent.boost_tab(1));
  EXPECT_FALSE(agent.always_boost("cnn.com"));
  EXPECT_FALSE(agent.has_descriptor());
  EXPECT_EQ(agent.cookies_inserted(), 0u);
}

}  // namespace
}  // namespace nnn
