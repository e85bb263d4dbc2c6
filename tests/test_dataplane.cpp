// Dataplane: QoS primitives, flow table, middlebox, zero-rating.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "dataplane/flow_table.h"
#include "dataplane/middlebox.h"
#include "dataplane/qos.h"
#include "dataplane/service_registry.h"
#include "dataplane/zero_rating.h"
#include "net/http.h"
#include "util/clock.h"

namespace nnn::dataplane {
namespace {

using util::kSecond;

TEST(TokenBucket, StartsFullAndDrains) {
  TokenBucket bucket(8000.0, 1000, 0);  // 1000 B/s refill, 1000 B burst
  EXPECT_TRUE(bucket.try_consume(600, 0));
  EXPECT_TRUE(bucket.try_consume(400, 0));
  EXPECT_FALSE(bucket.try_consume(1, 0));
}

TEST(TokenBucket, RefillsAtConfiguredRate) {
  TokenBucket bucket(8000.0, 1000, 0);
  bucket.try_consume(1000, 0);
  // After 0.5 s: 500 bytes back.
  EXPECT_FALSE(bucket.try_consume(501, kSecond / 2));
  EXPECT_TRUE(bucket.try_consume(500, kSecond / 2));
  // Tokens cap at the burst size.
  EXPECT_NEAR(bucket.tokens(100 * kSecond), 1000.0, 1e-6);
}

TEST(TokenBucket, ConformsDoesNotSpend) {
  TokenBucket bucket(8000.0, 1000, 0);
  EXPECT_TRUE(bucket.conforms(1000, 0));
  EXPECT_TRUE(bucket.try_consume(1000, 0));  // still there
}

net::Packet sized_packet(uint32_t size) {
  net::Packet p;
  p.wire_size = size;
  return p;
}

TEST(PriorityQueueSet, StrictPriorityOrder) {
  PriorityQueueSet queues(3, 1 << 20);
  queues.enqueue(sized_packet(100), 2);
  queues.enqueue(sized_packet(200), 0);
  queues.enqueue(sized_packet(300), 1);
  EXPECT_EQ(queues.dequeue()->size(), 200u);
  EXPECT_EQ(queues.dequeue()->size(), 300u);
  EXPECT_EQ(queues.dequeue()->size(), 100u);
  EXPECT_FALSE(queues.dequeue().has_value());
}

TEST(PriorityQueueSet, FifoWithinBand) {
  PriorityQueueSet queues(1, 1 << 20);
  queues.enqueue(sized_packet(1), 0);
  queues.enqueue(sized_packet(2), 0);
  queues.enqueue(sized_packet(3), 0);
  EXPECT_EQ(queues.dequeue()->size(), 1u);
  EXPECT_EQ(queues.dequeue()->size(), 2u);
  EXPECT_EQ(queues.dequeue()->size(), 3u);
}

TEST(PriorityQueueSet, TailDropOnOverflow) {
  PriorityQueueSet queues(2, 250);
  EXPECT_TRUE(queues.enqueue(sized_packet(100), 0));
  EXPECT_TRUE(queues.enqueue(sized_packet(100), 0));
  EXPECT_FALSE(queues.enqueue(sized_packet(100), 0));  // over 250 B
  EXPECT_EQ(queues.stats(0).dropped, 1u);
  EXPECT_EQ(queues.stats(0).enqueued, 2u);
  // The other band has its own budget.
  EXPECT_TRUE(queues.enqueue(sized_packet(100), 1));
}

TEST(PriorityQueueSet, BandClampAndPerBandOps) {
  PriorityQueueSet queues(2, 1 << 20);
  queues.enqueue(sized_packet(7), 99);  // clamped to last band
  EXPECT_TRUE(queues.band_empty(0));
  ASSERT_FALSE(queues.band_empty(1));
  EXPECT_EQ(queues.peek_band(1).size(), 7u);
  EXPECT_EQ(queues.dequeue_band(1)->size(), 7u);
  EXPECT_TRUE(queues.empty());
}

TEST(FlowTable, SniffWindowProgression) {
  util::ManualClock clock(0);
  FlowTable table(3);
  net::FiveTuple t;
  t.src_port = 1;
  const net::FlowKey key = net::FlowKey::from_tuple(t);
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(table.bind(key, 100, clock.now()).value().entry->state,
              FlowState::kSniffing)
        << "packet " << i;
  }
  EXPECT_EQ(table.bind(key, 100, clock.now()).value().entry->state,
            FlowState::kBestEffort);
}

TEST(FlowTable, MapFlowCoversReverse) {
  util::ManualClock clock(0);
  FlowTable table;
  net::FiveTuple t;
  t.src_port = 10;
  t.dst_port = 20;
  ASSERT_TRUE(table
                  .map_flow(net::FlowKey::from_tuple(t), "Boost", 0,
                            /*include_reverse=*/true)
                  .has_value());
  const auto forward = table.lookup(net::FlowKey::from_tuple(t));
  ASSERT_TRUE(forward.has_value());
  EXPECT_EQ(forward.value()->state, FlowState::kMapped);
  const auto reverse = table.lookup(net::FlowKey::from_tuple(t.reversed()));
  ASSERT_TRUE(reverse.has_value());
  EXPECT_EQ(reverse.value()->service_data, "Boost");
}

TEST(FlowTable, IdleExpiry) {
  FlowTable table(3, 10 * kSecond);
  net::FiveTuple t;
  t.src_port = 5;
  const net::FlowKey key = net::FlowKey::from_tuple(t);
  table.bind(key, 100, 0);
  EXPECT_EQ(table.expire_idle(5 * kSecond), 0u);
  EXPECT_EQ(table.expire_idle(11 * kSecond), 1u);
  const auto gone = table.lookup(key);
  ASSERT_FALSE(gone.has_value());
  EXPECT_EQ(gone.error().domain, ErrorDomain::kFlow);
  EXPECT_EQ(gone.error().code, ErrorCode::kUnknownId);
  EXPECT_EQ(table.stats().flows_expired, 1u);
}

// --- middlebox fixture ---

class MiddleboxTest : public ::testing::Test {
 protected:
  MiddleboxTest()
      : clock_(1000 * kSecond),
        verifier_(clock_),
        middlebox_(clock_, verifier_, registry_) {
    descriptor_.cookie_id = 1;
    descriptor_.key.assign(32, 0x42);
    descriptor_.service_data = "Boost";
    verifier_.add_descriptor(descriptor_);
    registry_.bind("Boost", PriorityAction{0});
  }

  cookies::CookieGenerator generator() {
    return cookies::CookieGenerator(descriptor_, clock_, 7);
  }

  net::Packet flow_packet(uint16_t src_port, uint32_t size = 500) {
    net::Packet p;
    p.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
    p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
    p.tuple.src_port = src_port;
    p.tuple.dst_port = 80;
    p.wire_size = size;
    return p;
  }

  net::Packet cookie_packet(uint16_t src_port,
                            cookies::CookieGenerator& gen) {
    net::Packet p = flow_packet(src_port);
    net::http::Request r("GET", "/", "example.com");
    const std::string text = r.serialize();
    p.payload.assign(text.begin(), text.end());
    p.wire_size = 0;
    cookies::attach(p, gen.generate(), cookies::Transport::kHttpHeader);
    return p;
  }

  util::ManualClock clock_;
  cookies::CookieVerifier verifier_;
  ServiceRegistry registry_;
  cookies::CookieDescriptor descriptor_;
  Middlebox middlebox_;
};

TEST_F(MiddleboxTest, CookieMapsFlowAndReverse) {
  auto gen = generator();
  net::Packet request = cookie_packet(4000, gen);
  const Verdict verdict = middlebox_.process(request);
  EXPECT_TRUE(verdict.mapped_now);
  ASSERT_TRUE(verdict.action.has_value());
  EXPECT_TRUE(std::holds_alternative<PriorityAction>(*verdict.action));

  // Later packets of the flow take the fast path.
  net::Packet data = flow_packet(4000);
  const Verdict v2 = middlebox_.process(data);
  EXPECT_TRUE(v2.action.has_value());
  EXPECT_FALSE(v2.mapped_now);
  EXPECT_EQ(middlebox_.stats().task_map_only, 1u);

  // Reverse direction mapped too.
  net::Packet reverse = flow_packet(4000);
  reverse.tuple = reverse.tuple.reversed();
  EXPECT_TRUE(middlebox_.process(reverse).action.has_value());
}

TEST_F(MiddleboxTest, NoCookieMeansBestEffort) {
  net::Packet p = flow_packet(4001);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(middlebox_.process(p).action.has_value());
  }
  EXPECT_EQ(middlebox_.stats().task_search, 3u);      // sniff window
  EXPECT_EQ(middlebox_.stats().task_map_only, 2u);    // settled
}

TEST_F(MiddleboxTest, CookieAfterSniffWindowIgnored) {
  auto gen = generator();
  net::Packet p1 = flow_packet(4002);
  net::Packet p2 = flow_packet(4002);
  net::Packet p3 = flow_packet(4002);
  middlebox_.process(p1);
  middlebox_.process(p2);
  middlebox_.process(p3);
  net::Packet late = cookie_packet(4002, gen);
  const Verdict verdict = middlebox_.process(late);
  EXPECT_FALSE(verdict.action.has_value());
  EXPECT_FALSE(verdict.mapped_now);
}

TEST_F(MiddleboxTest, InvalidCookieFailsOpen) {
  auto gen = generator();
  net::Packet p = cookie_packet(4003, gen);
  // Corrupt the descriptor key so verification fails.
  verifier_.remove(1);
  cookies::CookieDescriptor wrong = descriptor_;
  wrong.key.assign(32, 0x24);
  verifier_.add_descriptor(wrong);
  const Verdict verdict = middlebox_.process(p);
  EXPECT_FALSE(verdict.action.has_value());
  ASSERT_TRUE(verdict.verify_status.has_value());
  EXPECT_EQ(*verdict.verify_status, cookies::VerifyStatus::kBadSignature);
  // Packet is not dropped — the caller just gets best-effort.
}

TEST_F(MiddleboxTest, ReplayedCookieDoesNotMapSecondFlow) {
  auto gen = generator();
  net::Packet first = cookie_packet(4004, gen);
  middlebox_.process(first);

  // An eavesdropper replays the same wire bytes on their own flow.
  net::Packet replay = first;
  replay.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 66);
  const Verdict verdict = middlebox_.process(replay);
  EXPECT_FALSE(verdict.action.has_value());
  EXPECT_EQ(*verdict.verify_status, cookies::VerifyStatus::kReplayed);
}

TEST_F(MiddleboxTest, ProcessBatchMatchesSequential) {
  // Differential: a mixed burst through process_batch must produce the
  // same verdicts, stats, and flow states as process() one packet at a
  // time. The burst deliberately contains the awkward cases: a flow's
  // data packet right behind its own cookie, an in-burst replay on a
  // different flow, a reverse-direction packet of a still-pending
  // mapping, and a forged signature.
  cookies::CookieVerifier verifier_seq(clock_);
  verifier_seq.add_descriptor(descriptor_);
  Middlebox sequential(clock_, verifier_seq, registry_);

  auto gen = generator();
  std::vector<net::Packet> burst;
  burst.push_back(cookie_packet(5000, gen));   // 0: maps flow 5000
  burst.push_back(flow_packet(5000));          // 1: same flow, same burst
  burst.push_back(cookie_packet(5001, gen));   // 2: maps flow 5001
  net::Packet replay = burst[0];               // 3: replayed wire bytes
  replay.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 66);
  burst.push_back(replay);
  burst.push_back(flow_packet(5002));          // 4: plain new flow
  net::Packet forged = cookie_packet(5003, gen);
  forged.payload[forged.payload.size() / 2] ^= 0x01;  // 5: corrupt cookie
  burst.push_back(forged);
  net::Packet reverse = flow_packet(5001);     // 6: reverse of pending map
  reverse.tuple = reverse.tuple.reversed();
  burst.push_back(reverse);
  burst.push_back(cookie_packet(5004, gen));   // 7: one more mapping
  burst.push_back(flow_packet(5001));          // 8: mapped fast path
  burst.push_back(flow_packet(5002));          // 9: sniffing, no cookie

  std::vector<net::Packet> copy = burst;
  std::vector<Verdict> expected;
  expected.reserve(copy.size());
  for (auto& packet : copy) expected.push_back(sequential.process(packet));

  std::vector<Verdict> batched(burst.size());
  std::vector<net::Packet*> pointers;
  for (auto& packet : burst) pointers.push_back(&packet);
  middlebox_.process_batch(pointers, batched);

  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(batched[i].action.has_value(), expected[i].action.has_value())
        << "packet " << i;
    EXPECT_EQ(batched[i].service_data, expected[i].service_data)
        << "packet " << i;
    EXPECT_EQ(batched[i].mapped_now, expected[i].mapped_now)
        << "packet " << i;
    EXPECT_EQ(batched[i].verify_status, expected[i].verify_status)
        << "packet " << i;
    EXPECT_EQ(burst[i].dscp, copy[i].dscp) << "packet " << i;
  }
  EXPECT_EQ(middlebox_.stats().task_search, sequential.stats().task_search);
  EXPECT_EQ(middlebox_.stats().task_search_and_verify,
            sequential.stats().task_search_and_verify);
  EXPECT_EQ(middlebox_.stats().task_map_only,
            sequential.stats().task_map_only);
  EXPECT_EQ(middlebox_.stats().packets, sequential.stats().packets);
  EXPECT_EQ(middlebox_.stats().bytes, sequential.stats().bytes);
  EXPECT_EQ(verifier_.stats(), verifier_seq.stats());
  EXPECT_EQ(middlebox_.flows().size(), sequential.flows().size());
}

TEST_F(MiddleboxTest, ProcessBatchReadsEachDescriptorBeforeEviction) {
  // VerifyResult::descriptor points into the verifier's hot tier and
  // lives until the next verifier call. With a one-entry tier every
  // admission evicts the previous descriptor, so a holder that read
  // its pointer late would apply another descriptor's attributes. Four
  // descriptors, each with an attribute that changes the verdict, are
  // interleaved with their flows' later and reverse packets in one
  // burst: process_batch on the budget-1 box must give the verdicts
  // process() gives packet by packet on a default-budget twin.
  std::vector<cookies::CookieDescriptor> descriptors(4);
  for (size_t i = 0; i < descriptors.size(); ++i) {
    descriptors[i].cookie_id = 10 + i;
    descriptors[i].key.assign(32, static_cast<uint8_t>(0x50 + i));
    descriptors[i].service_data = "service-" + std::to_string(i);
    registry_.bind(descriptors[i].service_data, PriorityAction{i});
  }
  // Rejects the UDP shim every cookie below rides in.
  descriptors[0].attributes.transports = {cookies::Transport::kHttpHeader};
  descriptors[1].attributes.mapping_ttl = 30 * kSecond;
  descriptors[2].attributes.reverse_flow = false;
  descriptors[3].attributes.granularity = cookies::Granularity::kPacket;

  cookies::CookieVerifier tight(clock_);
  tight.set_hot_budget(1);
  cookies::CookieVerifier roomy(clock_);
  std::vector<cookies::CookieGenerator> gens;
  for (const auto& descriptor : descriptors) {
    tight.add_descriptor(descriptor);
    roomy.add_descriptor(descriptor);
    gens.emplace_back(descriptor, clock_, descriptor.cookie_id);
  }
  Middlebox box(clock_, tight, registry_);
  Middlebox twin(clock_, roomy, registry_);

  const auto plain = [&](size_t flow, bool reverse = false) {
    net::Packet p = flow_packet(static_cast<uint16_t>(6000 + flow));
    p.tuple.proto = net::L4Proto::kUdp;
    if (reverse) p.tuple = p.tuple.reversed();
    return p;
  };
  const auto cookie = [&](size_t flow) {
    net::Packet p = plain(flow);
    cookies::attach(p, gens[flow].generate(), cookies::Transport::kUdpHeader);
    return p;
  };
  std::vector<net::Packet> burst = {
      cookie(0),      cookie(1), plain(0),       cookie(2),
      plain(1, true), cookie(3), plain(2),       plain(0, true),
      plain(3),       plain(2, true), plain(1),  plain(3, true)};

  std::vector<net::Packet> copy = burst;
  std::vector<Verdict> expected;
  for (auto& packet : copy) expected.push_back(twin.process(packet));
  // The twin's verdicts show each attribute at work.
  EXPECT_EQ(expected[0].verify_status, cookies::VerifyStatus::kUnknownId);
  EXPECT_TRUE(expected[4].action.has_value());    // reverse of flow 1
  EXPECT_FALSE(expected[9].action.has_value());   // reverse of flow 2
  EXPECT_TRUE(expected[5].mapped_now);            // per-packet cookie...
  EXPECT_FALSE(expected[8].action.has_value());   // ...maps no flow

  std::vector<Verdict> batched(burst.size());
  std::vector<net::Packet*> pointers;
  for (auto& packet : burst) pointers.push_back(&packet);
  box.process_batch(pointers, batched);
  for (size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(batched[i].verify_status, expected[i].verify_status)
        << "packet " << i;
    EXPECT_EQ(batched[i].action, expected[i].action) << "packet " << i;
    EXPECT_EQ(batched[i].service_data, expected[i].service_data)
        << "packet " << i;
    EXPECT_EQ(batched[i].mapped_now, expected[i].mapped_now)
        << "packet " << i;
  }
  EXPECT_GE(tight.hot_tier().evictions(), 3u);
}

TEST_F(MiddleboxTest, ProcessBatchRemarksDscp) {
  // DSCP remark mode through the batch path: the cookie packet and the
  // mapped follow-up both get remarked, exactly as process() would.
  Middlebox::Config config;
  config.remark_dscp = 46;
  cookies::CookieVerifier verifier(clock_);
  verifier.add_descriptor(descriptor_);
  Middlebox box(clock_, verifier, registry_, config);

  auto gen = generator();
  std::vector<net::Packet> burst;
  burst.push_back(cookie_packet(5100, gen));
  burst.push_back(flow_packet(5100));
  burst.push_back(flow_packet(5101));  // unmapped: untouched dscp
  std::vector<Verdict> verdicts(burst.size());
  std::vector<net::Packet*> pointers;
  for (auto& packet : burst) pointers.push_back(&packet);
  box.process_batch(pointers, verdicts);
  EXPECT_EQ(burst[0].dscp, 46);
  EXPECT_EQ(burst[1].dscp, 46);
  EXPECT_EQ(burst[2].dscp, 0);
  EXPECT_TRUE(verdicts[0].mapped_now);
  EXPECT_TRUE(verdicts[1].action.has_value());
  EXPECT_FALSE(verdicts[2].action.has_value());
}

TEST_F(MiddleboxTest, UnboundServiceDataYieldsNoAction) {
  cookies::CookieDescriptor other = descriptor_;
  other.cookie_id = 2;
  other.service_data = "UnknownService";
  verifier_.add_descriptor(other);
  cookies::CookieGenerator gen(other, clock_, 8);
  net::Packet p = cookie_packet(4005, gen);
  const Verdict verdict = middlebox_.process(p);
  EXPECT_TRUE(verdict.mapped_now);  // cookie verified...
  EXPECT_FALSE(verdict.action.has_value());  // ...but no policy bound
  EXPECT_EQ(verdict.service_data, "UnknownService");
}

TEST_F(MiddleboxTest, DscpRemarkMode) {
  Middlebox::Config config;
  config.remark_dscp = 46;
  Middlebox remarker(clock_, verifier_, registry_, config);
  auto gen = generator();
  net::Packet p = cookie_packet(4006, gen);
  remarker.process(p);
  EXPECT_EQ(p.dscp, 46);
  net::Packet plain = flow_packet(4007);
  remarker.process(plain);
  EXPECT_EQ(plain.dscp, 0);
}

TEST_F(MiddleboxTest, TaskCountersMatchPaperTaxonomy) {
  auto gen = generator();
  net::Packet request = cookie_packet(4008, gen);
  middlebox_.process(request);                  // search+verify
  net::Packet data = flow_packet(4008);
  middlebox_.process(data);                     // map only
  net::Packet other = flow_packet(4009);
  middlebox_.process(other);                    // search, nothing
  const auto& stats = middlebox_.stats();
  EXPECT_EQ(stats.task_search_and_verify, 1u);
  EXPECT_EQ(stats.task_map_only, 1u);
  EXPECT_EQ(stats.task_search, 1u);
  EXPECT_EQ(stats.packets, 3u);
}

TEST_F(MiddleboxTest, ZeroRatingAccounting) {
  ZeroRatingLedger ledger(10'000'000);
  registry_.bind("ZeroRate", ZeroRateAction{});
  cookies::CookieDescriptor zr = descriptor_;
  zr.cookie_id = 3;
  zr.service_data = "ZeroRate";
  verifier_.add_descriptor(zr);
  cookies::CookieGenerator gen(zr, clock_, 9);

  const auto subscriber = net::IpAddress::v4(192, 168, 1, 10);
  net::Packet request = cookie_packet(5000, gen);
  const uint32_t request_size = request.size();
  middlebox_.process_and_account(request, ledger, subscriber);
  net::Packet data = flow_packet(5000, 1000);
  middlebox_.process_and_account(data, ledger, subscriber);
  net::Packet other = flow_packet(5001, 700);
  middlebox_.process_and_account(other, ledger, subscriber);

  const auto usage = ledger.usage(subscriber);
  EXPECT_EQ(usage.free_bytes, request_size + 1000u);
  EXPECT_EQ(usage.charged_bytes, 700u);
}

TEST(ZeroRatingLedger, CapSemantics) {
  ZeroRatingLedger ledger(1000);
  const auto ip = net::IpAddress::v4(10, 0, 0, 1);
  EXPECT_EQ(ledger.remaining_cap(ip).value(), 1000u);
  ledger.record(ip, 600, /*free=*/false);
  EXPECT_EQ(ledger.remaining_cap(ip).value(), 400u);
  EXPECT_FALSE(ledger.over_cap(ip));
  // Zero-rated bytes never count against the cap.
  ledger.record(ip, 100'000, /*free=*/true);
  EXPECT_EQ(ledger.remaining_cap(ip).value(), 400u);
  ledger.record(ip, 400, /*free=*/false);
  EXPECT_TRUE(ledger.over_cap(ip));
  ledger.reset();
  EXPECT_FALSE(ledger.over_cap(ip));
  EXPECT_EQ(ledger.usage(ip).total(), 0u);
}

TEST(ZeroRatingLedger, UncappedAccounts) {
  ZeroRatingLedger ledger;
  const auto ip = net::IpAddress::v4(10, 0, 0, 2);
  ledger.record(ip, 1'000'000'000, false);
  EXPECT_FALSE(ledger.remaining_cap(ip).has_value());
  EXPECT_FALSE(ledger.over_cap(ip));
}

TEST(ServiceRegistry, BindLookupUnbind) {
  ServiceRegistry registry;
  registry.bind("Boost", PriorityAction{0});
  registry.bind("Slow", RateLimitAction{1e6, 1500});
  ASSERT_TRUE(registry.lookup("Boost").has_value());
  EXPECT_TRUE(std::holds_alternative<PriorityAction>(*registry.lookup("Boost")));
  EXPECT_FALSE(registry.lookup("Missing").has_value());
  EXPECT_TRUE(registry.unbind("Boost"));
  EXPECT_FALSE(registry.lookup("Boost").has_value());
  EXPECT_FALSE(registry.unbind("Boost"));
  // Rebinding replaces.
  registry.bind("Slow", DscpRemarkAction{10});
  EXPECT_TRUE(std::holds_alternative<DscpRemarkAction>(*registry.lookup("Slow")));
}

TEST(ServiceRegistry, ActionToString) {
  EXPECT_EQ(to_string(ServiceAction{PriorityAction{2}}), "priority(band=2)");
  EXPECT_EQ(to_string(ServiceAction{ZeroRateAction{}}), "zero-rate");
  EXPECT_EQ(to_string(ServiceAction{DscpRemarkAction{46}}),
            "dscp-remark(46)");
}

}  // namespace
}  // namespace nnn::dataplane
