// End-to-end integration: the full §4.4 walkthrough (discovery ->
// acquisition -> insertion -> verification -> QoS), the Fig. 5b lanes,
// and a zero-rating deployment.
#include <gtest/gtest.h>

#include "boost_lane/agent.h"
#include "boost_lane/browser.h"
#include "boost_lane/daemon.h"
#include "controlplane/local_subscriber.h"
#include "cookies/transport.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "server/cookie_server.h"
#include "server/discovery.h"
#include "server/json_api.h"
#include "sim/nat.h"
#include "studies/fct_experiment.h"
#include "util/clock.h"
#include "workload/page_load.h"
#include "workload/websites.h"

namespace nnn {
namespace {

using util::kSecond;

// The concrete §4.4 example: "an ISP offers its customers a fast-lane
// for their high priority traffic. The home AP discovers that cookie
// descriptors are available ... acquires a cookie descriptor, which is
// valid for one week. A browser extension ... uses the cookie
// descriptor to add cookies to outgoing packets."
TEST(EndToEnd, Section44Walkthrough) {
  util::ManualClock clock(2'000'000 * kSecond);

  // ISP side.
  cookies::CookieVerifier verifier(clock);
  controlplane::DescriptorLog descriptor_log;
  server::CookieServer server(clock, 101, &descriptor_log);
  controlplane::LocalSubscriber subscriber(descriptor_log, verifier);
  server::ServiceOffer offer;
  offer.name = "Boost";
  offer.description = "fast lane for high-priority traffic";
  offer.service_data = "Boost";
  offer.descriptor_lifetime = 7LL * 24 * 3600 * kSecond;  // one week
  server.add_service(offer);
  server::JsonApi api(server);

  // Discovery through the DHCP lease.
  server::DiscoveryRegistry discovery;
  discovery.advertise({"home-net", "http://cookie-server.example",
                       server::DiscoveryMethod::kDhcpOption});
  ASSERT_EQ(discovery.first_endpoint("home-net").value(),
            "http://cookie-server.example");

  // Browser extension boosts a website.
  util::Rng rng(55);
  boost_lane::Browser browser(rng, net::IpAddress::v4(192, 168, 1, 10));
  boost_lane::BoostAgent agent(clock, api, "household-7", 9);
  const auto tab = browser.open_tab();
  auto load = browser.navigate(tab, workload::youtube_profile());
  ASSERT_TRUE(agent.always_boost("youtube.com"));
  // Descriptor valid for one week.
  EXPECT_EQ(agent.descriptor()->attributes.expires_at.value(),
            clock.now() + 7LL * 24 * 3600 * kSecond);

  // Dataplane at the AP/head-end behind NAT.
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  dataplane::Middlebox middlebox(clock, verifier, registry);
  sim::Nat nat(net::IpAddress::v4(203, 0, 113, 50));

  uint64_t boosted = 0;
  uint64_t total = 0;
  for (const auto& flow : load.flows) {
    auto packets =
        workload::PageLoadGenerator::materialize_flow(flow.flow, rng);
    for (size_t i = 0; i < packets.size(); ++i) {
      net::Packet packet = packets[i];
      if (i == flow.flow.request_index) {
        agent.process_request(flow, packet);
      }
      nat.translate_outbound(packet);
      if (middlebox.process(packet).action) ++boosted;
      ++total;
    }
  }
  // The boosted share matches the Fig. 6a story: >90%, <100%.
  const double share = 100.0 * static_cast<double>(boosted) / total;
  EXPECT_GT(share, 90.0);
  EXPECT_LT(share, 100.0);
}

TEST(EndToEnd, Fig5bLaneOrderingHolds) {
  // A reduced-trial version of the Fig. 5b experiment: boosted flows
  // finish fastest, throttled slowest, best-effort in between.
  studies::FctConfig config;
  config.trials = 6;
  config.seed = 9;
  const auto boosted =
      studies::run_fct(studies::Lane::kBoosted, config);
  const auto best_effort =
      studies::run_fct(studies::Lane::kBestEffort, config);
  const auto throttled =
      studies::run_fct(studies::Lane::kThrottled, config);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  for (const double fct : boosted) EXPECT_GT(fct, 0);
  for (const double fct : best_effort) EXPECT_GT(fct, 0);
  for (const double fct : throttled) EXPECT_GT(fct, 0);

  const double m_boost = median(boosted);
  const double m_be = median(best_effort);
  const double m_throttle = median(throttled);
  EXPECT_LT(m_boost, m_be);
  EXPECT_LT(m_be, m_throttle);
  // Rough magnitudes from the figure: boosted well under a second;
  // throttled bounded below by 300 KB / 1 Mb/s = 2.4 s.
  EXPECT_LT(m_boost, 1.5);
  EXPECT_GT(m_throttle, 2.4);
}

TEST(EndToEnd, ZeroRatingDeployment) {
  util::ManualClock clock(3'000'000 * kSecond);
  cookies::CookieVerifier verifier(clock);
  controlplane::DescriptorLog descriptor_log;
  server::CookieServer server(clock, 202, &descriptor_log);
  controlplane::LocalSubscriber log_subscriber(descriptor_log, verifier);
  server::ServiceOffer offer;
  offer.name = "ZeroRate-MyApp";
  offer.service_data = "zero-rate";
  offer.auth = server::AuthPolicy::kToken;  // cellular: login required
  server.add_service(offer);
  server.add_account(server::Account{"alice", "tok"});

  dataplane::ServiceRegistry registry;
  registry.bind("zero-rate", dataplane::ZeroRateAction{});
  dataplane::Middlebox middlebox(clock, verifier, registry);
  dataplane::ZeroRatingLedger ledger(5'000'000);  // 5 MB monthly cap

  const auto grant = server.acquire("ZeroRate-MyApp", "alice", "tok");
  ASSERT_TRUE(grant.ok());
  cookies::CookieGenerator generator(*grant.descriptor, clock, 31);

  const auto subscriber = net::IpAddress::v4(100, 64, 0, 7);

  // The chosen app's flow: cookie on the first packet, then data.
  net::FiveTuple app_flow;
  app_flow.src_ip = subscriber;
  app_flow.dst_ip = net::IpAddress::v4(151, 101, 0, 9);
  app_flow.src_port = 40000;
  app_flow.dst_port = 443;

  net::Packet request;
  request.tuple = app_flow;
  net::http::Request http("GET", "/stream", "myapp.example");
  const std::string text = http.serialize();
  request.payload.assign(text.begin(), text.end());
  cookies::attach(request, generator.generate(),
                  cookies::Transport::kHttpHeader);
  middlebox.process_and_account(request, ledger, subscriber);
  for (int i = 0; i < 100; ++i) {
    net::Packet data;
    data.tuple = app_flow;
    data.wire_size = 1400;
    middlebox.process_and_account(data, ledger, subscriber);
  }
  // Other traffic is charged.
  for (int i = 0; i < 50; ++i) {
    net::Packet other;
    other.tuple = app_flow;
    other.tuple.src_port = 40001;
    other.wire_size = 1000;
    middlebox.process_and_account(other, ledger, subscriber);
  }

  const auto usage = ledger.usage(subscriber);
  EXPECT_GE(usage.free_bytes, 100u * 1400);
  EXPECT_EQ(usage.charged_bytes, 50'000u);
  EXPECT_FALSE(ledger.over_cap(subscriber));

  // Revocation: after the ISP revokes, new flows are charged again.
  server.revoke(grant.descriptor->cookie_id, "subscription ended");
  net::Packet request2;
  request2.tuple = app_flow;
  request2.tuple.src_port = 40002;
  request2.payload.assign(text.begin(), text.end());
  cookies::attach(request2, generator.generate(),
                  cookies::Transport::kHttpHeader);
  const auto verdict =
      middlebox.process_and_account(request2, ledger, subscriber);
  EXPECT_FALSE(verdict.action.has_value());
  EXPECT_EQ(*verdict.verify_status,
            cookies::VerifyStatus::kDescriptorRevoked);
}

TEST(EndToEnd, CompositionAcrossTwoNetworks) {
  // §4.5's videocall: one packet carries two cookies, each network
  // applies its own service without any coordination.
  util::ManualClock clock(4'000'000 * kSecond);
  cookies::CookieVerifier verifier_a(clock);
  cookies::CookieVerifier verifier_b(clock);
  dataplane::ServiceRegistry registry_a;
  dataplane::ServiceRegistry registry_b;
  registry_a.bind("boost-a", dataplane::PriorityAction{0});
  registry_b.bind("boost-b", dataplane::PriorityAction{0});
  dataplane::Middlebox box_a(clock, verifier_a, registry_a);
  dataplane::Middlebox box_b(clock, verifier_b, registry_b);

  cookies::CookieDescriptor da;
  da.cookie_id = 1;
  da.key.assign(32, 0xaa);
  da.service_data = "boost-a";
  verifier_a.add_descriptor(da);
  cookies::CookieDescriptor db;
  db.cookie_id = 2;
  db.key.assign(32, 0xbb);
  db.service_data = "boost-b";
  verifier_b.add_descriptor(db);

  cookies::CookieGenerator gen_a(da, clock, 1);
  cookies::CookieGenerator gen_b(db, clock, 2);

  net::Packet packet;
  packet.tuple.proto = net::L4Proto::kUdp;
  packet.tuple.src_port = 5004;  // RTP-ish
  packet.payload = {0x80, 0x60, 0x00, 0x01};
  ASSERT_TRUE(cookies::attach(packet,
                              {gen_a.generate(), gen_b.generate()},
                              cookies::Transport::kUdpHeader));

  const auto verdict_a = box_a.process(packet);
  EXPECT_TRUE(verdict_a.action.has_value());
  EXPECT_EQ(registry_a.name(verdict_a.service), "boost-a");
  const auto verdict_b = box_b.process(packet);
  EXPECT_TRUE(verdict_b.action.has_value());
  EXPECT_EQ(registry_b.name(verdict_b.service), "boost-b");
}

}  // namespace
}  // namespace nnn
