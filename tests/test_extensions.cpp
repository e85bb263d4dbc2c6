// Extension features from §4.3 / §4.6 / §6: scale-out sharding and
// the double-spend problem, delivery guarantees (ack cookies), and
// regulator compliance monitoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cookies/ack_monitor.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "dataplane/hw_filter.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "runtime/dataplane.h"
#include "server/compliance.h"
#include "util/clock.h"

namespace nnn {
namespace {

using util::kSecond;

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 3 + 1));
  d.service_data = "Boost";
  return d;
}

net::Packet cookie_udp_packet(uint16_t src_port,
                              const cookies::Cookie& cookie) {
  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
  p.tuple.src_port = src_port;
  p.tuple.dst_port = 443;
  p.tuple.proto = net::L4Proto::kUdp;
  cookies::attach(p, cookie, cookies::Transport::kUdpHeader);
  return p;
}

// --- sharding (§4.6) ---

class ShardingTest : public ::testing::Test {
 protected:
  ShardingTest() : clock_(1000 * kSecond) {
    registry_.bind("Boost", dataplane::PriorityAction{0});
  }

  static runtime::Dataplane::Config plane_config(
      size_t workers, dataplane::DispatchPolicy policy) {
    runtime::Dataplane::Config config;
    config.policy = policy;
    config.pool.workers = workers;
    config.pool.verdict_capacity = 1024;
    return config;
  }

  /// Ingest `packets` (closed loop), run the plane to quiescence, stop
  /// it, and return one verdict per packet. clock_ stays frozen while
  /// the workers run, so the verdict multiset is deterministic.
  static std::vector<runtime::VerdictRecord> run(
      runtime::Dataplane& plane, std::vector<net::Packet> packets) {
    plane.start();
    for (net::Packet& packet : packets) {
      runtime::PacketHandle h = plane.make_packet();
      while (!h) {  // workers are draining slots
        std::this_thread::yield();
        h = plane.make_packet();
      }
      *h = std::move(packet);
      plane.ingest_blocking(std::move(h));
    }
    plane.drain();
    plane.stop();
    std::vector<runtime::VerdictRecord> verdicts;
    plane.drain_verdicts(verdicts);
    EXPECT_EQ(verdicts.size(), packets.size());
    return verdicts;
  }

  static uint64_t accepted(const std::vector<runtime::VerdictRecord>& v) {
    return static_cast<uint64_t>(
        std::count_if(v.begin(), v.end(),
                      [](const auto& r) { return r.has_action; }));
  }

  util::ManualClock clock_;
  dataplane::ServiceRegistry registry_;
};

TEST_F(ShardingTest, FlowHashAllowsDoubleSpend) {
  runtime::Dataplane plane(
      clock_, registry_, plane_config(4, dataplane::DispatchPolicy::kFlowHash));
  const auto descriptor = make_descriptor(1);
  plane.add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock_, 1);
  const cookies::Cookie cookie = generator.generate();

  // An attacker copies one cookie onto many flows; flow hashing
  // spreads them over shards whose replay caches are independent.
  std::vector<net::Packet> packets;
  for (uint16_t port = 40000; port < 40032; ++port) {
    packets.push_back(cookie_udp_packet(port, cookie));
  }
  const uint64_t honored = accepted(run(plane, std::move(packets)));
  // The same cookie was honored more than once: double-spent.
  EXPECT_GT(honored, 1u);
  EXPECT_LE(honored, plane.worker_count());
}

TEST_F(ShardingTest, DescriptorAffinityPreventsDoubleSpend) {
  runtime::Dataplane plane(
      clock_, registry_,
      plane_config(4, dataplane::DispatchPolicy::kDescriptorAffinity));
  const auto descriptor = make_descriptor(2);
  plane.add_descriptor(descriptor);
  cookies::CookieGenerator generator(descriptor, clock_, 2);
  const cookies::Cookie cookie = generator.generate();

  std::vector<net::Packet> packets;
  for (uint16_t port = 41000; port < 41032; ++port) {
    packets.push_back(cookie_udp_packet(port, cookie));
  }
  // use-once holds across the whole plane
  EXPECT_EQ(accepted(run(plane, std::move(packets))), 1u);
  EXPECT_EQ(plane.total_replays_detected(), 31u);
}

TEST_F(ShardingTest, AffinityStillBalancesCookielessTraffic) {
  runtime::Dataplane plane(
      clock_, registry_,
      plane_config(4, dataplane::DispatchPolicy::kDescriptorAffinity));
  std::vector<net::Packet> packets;
  for (uint16_t port = 0; port < 256; ++port) {
    net::Packet p;
    p.tuple.src_port = port;
    p.tuple.dst_port = 80;
    p.wire_size = 500;
    packets.push_back(std::move(p));
  }
  run(plane, std::move(packets));
  // Every shard saw a meaningful share (flow hashing for plain
  // packets).
  const runtime::RuntimeSnapshot snap = plane.snapshot();
  for (size_t i = 0; i < plane.worker_count(); ++i) {
    EXPECT_GT(snap.workers[i].packets, 256u / 10) << "shard " << i;
  }
}

TEST_F(ShardingTest, DistinctDescriptorsSpreadOverShards) {
  runtime::Dataplane plane(
      clock_, registry_,
      plane_config(4, dataplane::DispatchPolicy::kDescriptorAffinity));
  std::vector<net::Packet> packets;
  for (cookies::CookieId id = 1; id <= 16; ++id) {
    const auto descriptor = make_descriptor(id);
    plane.add_descriptor(descriptor);
    cookies::CookieGenerator generator(descriptor, clock_, id);
    packets.push_back(cookie_udp_packet(static_cast<uint16_t>(42000 + id),
                                        generator.generate()));
  }
  std::set<size_t> used;
  for (const auto& verdict : run(plane, std::move(packets))) {
    used.insert(verdict.worker);
    EXPECT_TRUE(verdict.has_action);
  }
  EXPECT_EQ(used.size(), 4u);  // ids 1..16 mod 4 cover all shards
}

TEST_F(ShardingTest, RevocationReachesAllShards) {
  runtime::Dataplane plane(
      clock_, registry_, plane_config(3, dataplane::DispatchPolicy::kFlowHash));
  const auto descriptor = make_descriptor(5);
  plane.add_descriptor(descriptor);
  plane.revoke(descriptor.cookie_id);
  cookies::CookieGenerator generator(descriptor, clock_, 5);
  std::vector<net::Packet> packets;
  for (uint16_t port = 43000; port < 43008; ++port) {
    packets.push_back(cookie_udp_packet(port, generator.generate()));
  }
  EXPECT_EQ(accepted(run(plane, std::move(packets))), 0u);
}

TEST_F(ShardingTest, EditsOnADrainedRunningPlaneReachTheNextCookie) {
  // add_descriptor/revoke on a drained, running plane are staged; the
  // next ingest publishes them before its packet reaches a worker.
  for (const auto policy : {dataplane::DispatchPolicy::kDescriptorAffinity,
                            dataplane::DispatchPolicy::kFlowHash}) {
    for (const size_t workers : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, " +
                   std::string(to_string(policy)));
      runtime::Dataplane plane(clock_, registry_,
                               plane_config(workers, policy));
      plane.start();
      plane.drain();
      const auto descriptor = make_descriptor(6);
      cookies::CookieGenerator generator(descriptor, clock_, 6);
      const auto next_status = [&](uint16_t port) {
        runtime::PacketHandle h = plane.make_packet();
        EXPECT_TRUE(h);
        if (!h) return std::optional<cookies::VerifyStatus>();
        *h = cookie_udp_packet(port, generator.generate());
        plane.ingest_blocking(std::move(h));
        plane.drain();
        std::vector<runtime::VerdictRecord> verdicts;
        plane.drain_verdicts(verdicts);
        EXPECT_EQ(verdicts.size(), 1u);
        return verdicts.empty() ? std::nullopt : verdicts[0].verify_status;
      };
      plane.add_descriptor(descriptor);
      EXPECT_EQ(next_status(44000), cookies::VerifyStatus::kOk);
      // A publish moves the staged store into the table, so the next
      // edit stages on a copy of it: adding another descriptor keeps
      // this one.
      plane.add_descriptor(make_descriptor(9));
      EXPECT_EQ(next_status(44001), cookies::VerifyStatus::kOk);
      plane.revoke(descriptor.cookie_id);
      EXPECT_EQ(next_status(44002), cookies::VerifyStatus::kDescriptorRevoked);
      plane.stop();
    }
  }
}

// --- delivery guarantees (§4.3) ---

class DeliveryGuaranteeTest : public ::testing::Test {
 protected:
  DeliveryGuaranteeTest()
      : clock_(1000 * kSecond), verifier_(clock_) {
    registry_.bind("Boost", dataplane::PriorityAction{0});
    descriptor_ = make_descriptor(7);
    descriptor_.attributes.delivery_guarantee = true;
    verifier_.add_descriptor(descriptor_);
    dataplane::Middlebox::Config config;
    config.delivery_guarantees = true;
    middlebox_.emplace(clock_, verifier_, registry_, config);
  }

  util::ManualClock clock_;
  cookies::CookieVerifier verifier_;
  dataplane::ServiceRegistry registry_;
  cookies::CookieDescriptor descriptor_;
  std::optional<dataplane::Middlebox> middlebox_;
};

TEST_F(DeliveryGuaranteeTest, AckCookieAttachedToReverseTraffic) {
  // Second input: a one-entry hot tier, and another descriptor's
  // cookie verified between the boosted packet and its reverse, so the
  // ack is minted from what find() reads back after an eviction.
  const auto other = make_descriptor(8);
  verifier_.add_descriptor(other);
  for (const bool evicted : {false, true}) {
    SCOPED_TRACE(evicted ? "descriptor evicted" : "descriptor hot");
    if (evicted) verifier_.set_hot_budget(1);
    cookies::CookieGenerator generator(descriptor_, clock_, evicted ? 11 : 7);
    cookies::AckMonitor monitor(clock_, 2 * kSecond);

    net::Packet request = cookie_udp_packet(evicted ? 45004 : 45000,
                                            generator.generate());
    monitor.expect(request.tuple, descriptor_.cookie_id);
    ASSERT_TRUE(middlebox_->process(request).action.has_value());
    EXPECT_EQ(middlebox_->pending_acks(), 1u);
    if (evicted) {
      cookies::CookieGenerator other_generator(other, clock_, 12);
      ASSERT_TRUE(verifier_.verify(other_generator.generate()).ok());
      EXPECT_GE(verifier_.hot_tier().evictions(), 1u);
    }

    // The server's response crosses the same box on the reverse path.
    net::Packet response;
    response.tuple = request.tuple.reversed();
    response.payload = {0x01};
    middlebox_->process(response);
    EXPECT_EQ(middlebox_->pending_acks(), 0u);

    // The client's monitor recognizes the ack.
    EXPECT_TRUE(monitor.on_packet(response));
    EXPECT_TRUE(monitor.acked(request.tuple));
    EXPECT_TRUE(monitor.overdue().empty());

    // The attached ack is a valid, fresh cookie from the descriptor.
    const auto extracted = cookies::extract(response);
    ASSERT_TRUE(extracted.has_value());
    EXPECT_TRUE(verifier_.verify(extracted->stack.front()).ok());
  }
}

TEST_F(DeliveryGuaranteeTest, NoAckWithoutAttribute) {
  auto plain = make_descriptor(8);  // delivery_guarantee = false
  verifier_.add_descriptor(plain);
  cookies::CookieGenerator generator(plain, clock_, 8);
  net::Packet request = cookie_udp_packet(45001, generator.generate());
  middlebox_->process(request);
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
  net::Packet response;
  response.tuple = request.tuple.reversed();
  middlebox_->process(response);
  EXPECT_FALSE(cookies::extract(response).has_value());
}

TEST_F(DeliveryGuaranteeTest, MissingAckBecomesOverdueAlert) {
  // The network loses state (the §4.3 motivation: "a temporary loss of
  // state in the network"): no ack ever arrives, the monitor alerts.
  cookies::CookieGenerator generator(descriptor_, clock_, 9);
  cookies::AckMonitor monitor(clock_, 2 * kSecond);
  net::Packet request = cookie_udp_packet(45002, generator.generate());
  monitor.expect(request.tuple, descriptor_.cookie_id);
  // (the request never reaches a cookie-enabled box)
  clock_.advance(3 * kSecond);
  const auto overdue = monitor.overdue();
  ASSERT_EQ(overdue.size(), 1u);
  EXPECT_EQ(overdue[0].cookie_id, descriptor_.cookie_id);
  EXPECT_FALSE(monitor.acked(request.tuple));
}

TEST_F(DeliveryGuaranteeTest, AckDebtSurvivesUncarryablePackets) {
  cookies::CookieGenerator generator(descriptor_, clock_, 10);
  net::Packet request = cookie_udp_packet(45003, generator.generate());
  middlebox_->process(request);

  // A TCP reverse packet with opaque payload can't carry the ack on
  // any transport; the debt persists to the next packet.
  net::Packet tcp_response;
  tcp_response.tuple = request.tuple.reversed();
  tcp_response.tuple.proto = net::L4Proto::kTcp;
  tcp_response.payload = {0x16, 0x03};
  middlebox_->process(tcp_response);
  EXPECT_FALSE(cookies::extract(tcp_response).has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 1u);

  // The next UDP response carries it.
  net::Packet udp_response;
  udp_response.tuple = request.tuple.reversed();
  middlebox_->process(udp_response);
  EXPECT_TRUE(cookies::extract(udp_response).has_value());
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
}

TEST_F(DeliveryGuaranteeTest, NoAckFromAnExpiredDescriptor) {
  // The descriptor expires while its ack is owed: verify() of its id
  // now reports kDescriptorExpired, so there is nothing to ack with.
  auto expiring = make_descriptor(9);
  expiring.attributes.delivery_guarantee = true;
  expiring.attributes.expires_at = clock_.now() + kSecond;
  verifier_.add_descriptor(expiring);
  cookies::CookieGenerator generator(expiring, clock_, 13);
  net::Packet request = cookie_udp_packet(45005, generator.generate());
  ASSERT_TRUE(middlebox_->process(request).mapped_now);
  ASSERT_EQ(middlebox_->pending_acks(), 1u);

  clock_.advance(2 * kSecond);
  net::Packet response;
  response.tuple = request.tuple.reversed();
  response.payload = {0x01};
  middlebox_->process(response);
  EXPECT_FALSE(cookies::extract(response).has_value())
      << "ack minted from an expired descriptor";
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
}

TEST_F(DeliveryGuaranteeTest, BurstGivesTheAcksOfPacketByPacket) {
  // One burst through process_batch against the same packets through
  // process() one at a time on a twin (its own verifier, the same ack
  // seed). The ack owed after packet 1 must ride packet 3, the first
  // reverse packet after the cookie, not packet 0 before it.
  const auto plain = make_descriptor(8);  // delivery_guarantee = false
  verifier_.add_descriptor(plain);
  cookies::CookieVerifier twin_verifier(clock_);
  twin_verifier.add_descriptor(descriptor_);
  twin_verifier.add_descriptor(plain);
  dataplane::Middlebox::Config config;
  config.delivery_guarantees = true;
  dataplane::Middlebox twin(clock_, twin_verifier, registry_, config);

  cookies::CookieGenerator acked(descriptor_, clock_, 14);
  cookies::CookieGenerator unacked(plain, clock_, 15);
  const net::Packet a = cookie_udp_packet(45006, acked.generate());
  const net::Packet b = cookie_udp_packet(45007, unacked.generate());
  const auto reverse = [](const net::Packet& forward) {
    net::Packet p;
    p.tuple = forward.tuple.reversed();
    p.payload = {0x01};
    return p;
  };
  std::vector<net::Packet> burst = {reverse(a), a,          b,
                                    reverse(a), reverse(b), reverse(a)};
  std::vector<net::Packet> sequential = burst;
  std::vector<dataplane::Verdict> expected;
  for (net::Packet& packet : sequential) {
    expected.push_back(twin.process(packet));
  }

  std::vector<net::Packet*> pointers;
  for (net::Packet& packet : burst) pointers.push_back(&packet);
  std::vector<dataplane::Verdict> verdicts(burst.size());
  middlebox_->process_batch(pointers, verdicts);

  for (size_t i = 0; i < burst.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(verdicts[i].verify_status, expected[i].verify_status);
    EXPECT_EQ(verdicts[i].action, expected[i].action);
    EXPECT_EQ(verdicts[i].mapped_now, expected[i].mapped_now);
    EXPECT_EQ(burst[i].l3_cookie, sequential[i].l3_cookie);
    EXPECT_EQ(burst[i].l4_cookie, sequential[i].l4_cookie);
    EXPECT_EQ(burst[i].payload, sequential[i].payload);
  }
  for (const size_t i : {0u, 3u, 4u, 5u}) {
    EXPECT_EQ(cookies::extract(burst[i]).has_value(), i == 3)
        << "reverse packet " << i;
  }
  EXPECT_TRUE(verdicts[1].mapped_now);
  EXPECT_TRUE(verdicts[2].mapped_now);
  EXPECT_EQ(middlebox_->pending_acks(), 0u);
  EXPECT_EQ(twin.pending_acks(), 0u);
}

TEST_F(DeliveryGuaranteeTest, AckDebtExpiresWithItsFlow) {
  // An ack whose reverse packet never crosses the box is owed by a
  // connection, and goes when the connection idles out: 50,000
  // one-packet delivery-guarantee flows with no reverse traffic, then
  // the clock moves past the idle timeout and one more packet runs.
  dataplane::Middlebox::Config config;
  config.delivery_guarantees = true;
  config.flow_idle_timeout = kSecond;
  dataplane::Middlebox box(clock_, verifier_, registry_, config);
  cookies::CookieGenerator generator(descriptor_, clock_, 16);
  constexpr uint32_t kFlows = 50'000;
  for (uint32_t i = 0; i < kFlows; ++i) {
    net::Packet request = cookie_udp_packet(45100, generator.generate());
    request.tuple.src_ip = net::IpAddress::v4(0x0a000000u | i);
    ASSERT_TRUE(box.process(request).mapped_now) << "flow " << i;
  }
  EXPECT_EQ(box.pending_acks(), kFlows);

  clock_.advance(60 * kSecond);
  net::Packet later;
  later.tuple.src_port = 45101;
  later.tuple.proto = net::L4Proto::kUdp;
  box.process(later);
  EXPECT_EQ(box.flows().size(), 1u);
  EXPECT_EQ(box.pending_acks(), 0u);
}

TEST(AckMonitor, IgnoresWrongDescriptorAndWrongFlow) {
  util::ManualClock clock(1000 * kSecond);
  cookies::AckMonitor monitor(clock, kSecond);
  net::FiveTuple flow;
  flow.src_port = 1;
  flow.dst_port = 2;
  flow.proto = net::L4Proto::kUdp;
  monitor.expect(flow, 42);

  auto other_descriptor = make_descriptor(99);
  cookies::CookieGenerator generator(other_descriptor, clock, 99);
  net::Packet wrong_id;
  wrong_id.tuple = flow.reversed();
  cookies::attach(wrong_id, generator.generate(),
                  cookies::Transport::kUdpHeader);
  EXPECT_FALSE(monitor.on_packet(wrong_id));

  net::Packet wrong_flow;
  wrong_flow.tuple = flow;  // not reversed
  cookies::attach(wrong_flow, generator.generate(),
                  cookies::Transport::kUdpHeader);
  EXPECT_FALSE(monitor.on_packet(wrong_flow));
  EXPECT_EQ(monitor.pending(), 1u);
}

// --- hardware pre-filter (§4.6) ---

class HwFilterTest : public ::testing::Test {
 protected:
  HwFilterTest()
      : clock_(1000 * kSecond),
        filter_(clock_, cookies::kNetworkCoherencyTime, {}) {
    descriptor_ = make_descriptor(11);
    filter_.learn_id(descriptor_.cookie_id);
  }

  util::ManualClock clock_;
  dataplane::HardwareFilter filter_;
  cookies::CookieDescriptor descriptor_;
};

TEST_F(HwFilterTest, PlainPacketsTakeTheFastPath) {
  net::Packet p;
  p.tuple.src_port = 1;
  p.wire_size = 700;
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kFastPath);
  net::Packet opaque;
  opaque.payload = {0x17, 0x03, 0x03};
  EXPECT_EQ(filter_.classify(opaque), dataplane::HwDecision::kFastPath);
  EXPECT_EQ(filter_.stats().count(dataplane::HwDecision::kFastPath), 2u);
}

TEST_F(HwFilterTest, KnownFreshCookieGoesToSoftware) {
  cookies::CookieGenerator generator(descriptor_, clock_, 11);
  net::Packet p = cookie_udp_packet(47000, generator.generate());
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);
}

TEST_F(HwFilterTest, UnknownIdRejectedWithoutSoftware) {
  auto rogue = make_descriptor(999);
  cookies::CookieGenerator generator(rogue, clock_, 12);
  net::Packet p = cookie_udp_packet(47001, generator.generate());
  EXPECT_EQ(filter_.classify(p),
            dataplane::HwDecision::kRejectUnknownId);
}

TEST_F(HwFilterTest, StaleTimestampRejected) {
  cookies::CookieGenerator generator(descriptor_, clock_, 13);
  const auto cookie = generator.generate();
  clock_.advance(10 * kSecond);  // well past the 5 s NCT
  net::Packet p = cookie_udp_packet(47002, cookie);
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kRejectStale);
}

TEST_F(HwFilterTest, TcpOptionCarrierDetected) {
  cookies::CookieGenerator generator(descriptor_, clock_, 14);
  net::Packet p;
  p.tuple.src_port = 47003;
  p.tuple.proto = net::L4Proto::kTcp;
  cookies::attach(p, generator.generate(),
                  cookies::Transport::kTcpOption);
  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);
}

TEST_F(HwFilterTest, HttpCarrierRespectsTextParsingConfig) {
  cookies::CookieGenerator generator(descriptor_, clock_, 15);
  net::Packet p;
  p.tuple.proto = net::L4Proto::kTcp;
  net::http::Request r("GET", "/", "x.example");
  const std::string text = r.serialize();
  p.payload.assign(text.begin(), text.end());
  cookies::attach(p, generator.generate(),
                  cookies::Transport::kHttpHeader);

  EXPECT_EQ(filter_.classify(p), dataplane::HwDecision::kToSoftware);

  dataplane::HardwareFilter conservative(
      clock_, cookies::kNetworkCoherencyTime,
      {.parse_text_carriers = false});
  conservative.learn_id(descriptor_.cookie_id);
  // Without text parsing the hardware can't see this cookie: the
  // packet takes the fast path and software sniffing must catch it.
  EXPECT_EQ(conservative.classify(p), dataplane::HwDecision::kFastPath);
}

TEST_F(HwFilterTest, FilterAgreesWithSoftwareVerifier) {
  // Property: hardware never rejects a cookie software would accept.
  cookies::CookieVerifier verifier(clock_);
  verifier.add_descriptor(descriptor_);
  cookies::CookieGenerator generator(descriptor_, clock_, 16);
  for (int i = 0; i < 200; ++i) {
    net::Packet p = cookie_udp_packet(
        static_cast<uint16_t>(48000 + i), generator.generate());
    const auto decision = filter_.classify(p);
    const auto extracted = cookies::extract(p);
    const bool software_ok =
        verifier.verify(extracted->stack.front()).ok();
    if (software_ok) {
      EXPECT_EQ(decision, dataplane::HwDecision::kToSoftware);
    }
  }
}

// --- compliance (§6) ---

constexpr util::Timestamp kDay = 24LL * 3600 * kSecond;

TEST(Compliance, GrantWithinDeadlineIsClean) {
  server::ComplianceMonitor monitor;  // 3-day rule
  monitor.record_request("somafm.example", "MusicFreedom", 0);
  EXPECT_TRUE(monitor.record_grant("somafm.example", "MusicFreedom",
                                   2 * kDay));
  EXPECT_TRUE(monitor.violations(100 * kDay).empty());
}

TEST(Compliance, LateGrantIsAViolation) {
  // The SomaFM story: 18 months from request to grant.
  server::ComplianceMonitor monitor;
  monitor.record_request("somafm.example", "MusicFreedom", 0);
  monitor.record_grant("somafm.example", "MusicFreedom", 540 * kDay);
  const auto violations = monitor.violations(600 * kDay);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].request.provider, "somafm.example");
  EXPECT_EQ(violations[0].overdue_by, 537 * kDay);
}

TEST(Compliance, PendingPastDeadlineIsAViolation) {
  // The RockRadio.gr story: "after three e-mails ... and several
  // months we heard no reply".
  server::ComplianceMonitor monitor;
  monitor.record_request("rockradio.example", "MusicFreedom", 0);
  EXPECT_TRUE(monitor.violations(90 * kDay).size() == 1);
  EXPECT_EQ(monitor.pending(90 * kDay).size(), 1u);
  // Not yet due: no violation on day 2.
  server::ComplianceMonitor fresh;
  fresh.record_request("x", "P", 0);
  EXPECT_TRUE(fresh.violations(2 * kDay).empty());
}

TEST(Compliance, GrantWithoutRequestRefused) {
  server::ComplianceMonitor monitor;
  EXPECT_FALSE(monitor.record_grant("ghost.example", "P", kDay));
}

TEST(Compliance, PublicDatabaseExports) {
  server::ComplianceMonitor monitor;
  monitor.record_request("a.example", "P", 1 * kDay);
  monitor.record_request("b.example", "P", 2 * kDay);
  monitor.record_grant("a.example", "P", 3 * kDay);
  const auto exported = monitor.to_json();
  ASSERT_TRUE(exported.is_array());
  ASSERT_EQ(exported.as_array().size(), 2u);
  EXPECT_EQ(exported.as_array()[0].get_string("provider"), "a.example");
  EXPECT_TRUE(exported.as_array()[1].find("granted_at")->is_null());
}

}  // namespace
}  // namespace nnn
