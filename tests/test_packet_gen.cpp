// The Fig. 4 packet generator (the MoonGen stand-in) and sim::Host
// plumbing details not covered elsewhere.
#include <gtest/gtest.h>

#include <unordered_set>

#include "cookies/transport.h"
#include "dataplane/middlebox.h"
#include "sim/host.h"
#include "util/clock.h"
#include "workload/packet_gen.h"

namespace nnn {
namespace {

using util::kSecond;

class PacketGenTest : public ::testing::Test {
 protected:
  PacketGenTest() : clock_(1000 * kSecond), verifier_(clock_) {}

  workload::PacketGenerator make(workload::PacketGenerator::Config config) {
    return workload::PacketGenerator(config, clock_, verifier_, 99);
  }

  util::ManualClock clock_;
  cookies::CookieVerifier verifier_;
};

TEST_F(PacketGenTest, InstallsDescriptorsIntoVerifier) {
  workload::PacketGenerator::Config config;
  config.descriptors = 250;
  auto generator = make(config);
  EXPECT_EQ(verifier_.descriptor_count(), 250u);
  EXPECT_TRUE(verifier_.knows(1));
  EXPECT_TRUE(verifier_.knows(250));
  EXPECT_FALSE(verifier_.knows(251));
}

TEST_F(PacketGenTest, BatchShapeMatchesConfig) {
  workload::PacketGenerator::Config config;
  config.packet_size = 512;
  config.packets_per_flow = 50;
  config.descriptors = 10;
  auto generator = make(config);
  const auto batch = generator.make_batch(8);
  ASSERT_EQ(batch.size(), 8u * 50);
  std::unordered_set<net::FiveTuple> tuples;
  for (const auto& packet : batch) {
    EXPECT_EQ(packet.size(), 512u);
    tuples.insert(packet.tuple);
  }
  EXPECT_EQ(tuples.size(), 8u);  // one tuple per flow
}

TEST_F(PacketGenTest, FirstPacketOfEachFlowCarriesValidCookie) {
  workload::PacketGenerator::Config config;
  config.packets_per_flow = 10;
  config.descriptors = 5;
  auto generator = make(config);
  const auto batch = generator.make_batch(6);
  for (size_t flow = 0; flow < 6; ++flow) {
    const auto& first = batch[flow * 10];
    const auto extracted = cookies::extract(first);
    ASSERT_TRUE(extracted.has_value()) << "flow " << flow;
    EXPECT_TRUE(verifier_.verify(extracted->stack.front()).ok());
    // Non-first packets carry nothing.
    EXPECT_FALSE(cookies::extract(batch[flow * 10 + 1]).has_value());
  }
}

TEST_F(PacketGenTest, BatchesUseFreshFlowsAcrossCalls) {
  workload::PacketGenerator::Config config;
  config.packets_per_flow = 2;
  config.descriptors = 3;
  auto generator = make(config);
  const auto a = generator.make_batch(4);
  const auto b = generator.make_batch(4);
  std::unordered_set<net::FiveTuple> tuples;
  for (const auto& p : a) tuples.insert(p.tuple);
  for (const auto& p : b) tuples.insert(p.tuple);
  EXPECT_EQ(tuples.size(), 8u);
}

TEST_F(PacketGenTest, WholeBatchMapsThroughMiddlebox) {
  workload::PacketGenerator::Config config;
  config.packets_per_flow = 10;
  config.descriptors = 100;
  auto generator = make(config);
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  dataplane::Middlebox middlebox(clock_, verifier_, registry);
  auto batch = generator.make_batch(50);
  uint64_t boosted = 0;
  for (auto& packet : batch) {
    if (middlebox.process(packet).action) ++boosted;
  }
  // Every packet of every flow rides the service its cookie set up.
  EXPECT_EQ(boosted, batch.size());
  EXPECT_EQ(middlebox.verifier().stats().count(cookies::VerifyStatus::kOk),
            50u);
}

TEST_F(PacketGenTest, Ipv6TransportProducesV6Packets) {
  workload::PacketGenerator::Config config;
  config.packets_per_flow = 3;
  config.descriptors = 2;
  config.transport = cookies::Transport::kIpv6Extension;
  auto generator = make(config);
  const auto batch = generator.make_batch(2);
  ASSERT_FALSE(batch.empty());
  EXPECT_TRUE(batch.front().ipv6);
  EXPECT_TRUE(batch.front().l3_cookie.has_value());
}

TEST(SimHost, DefaultHandlerAndPorts) {
  sim::Host host(net::IpAddress::v4(10, 0, 0, 1), "h");
  int unmatched = 0;
  host.set_default_handler([&](const net::Packet&) { ++unmatched; });
  net::Packet p;
  p.tuple.src_port = 5;
  host.receive(p);
  EXPECT_EQ(unmatched, 1);

  int matched = 0;
  host.register_handler(p.tuple, [&](const net::Packet&) { ++matched; });
  host.receive(p);
  EXPECT_EQ(matched, 1);
  EXPECT_EQ(unmatched, 1);
  host.unregister_handler(p.tuple);
  host.receive(p);
  EXPECT_EQ(unmatched, 2);

  const uint16_t a = host.allocate_port();
  const uint16_t b = host.allocate_port();
  EXPECT_NE(a, b);
}

TEST(SimHost, SendWithoutUplinkIsSafe) {
  sim::Host host(net::IpAddress::v4(10, 0, 0, 2), "h2");
  net::Packet p;
  EXPECT_NO_THROW(host.send(std::move(p)));  // logged, not fatal
}

}  // namespace
}  // namespace nnn
