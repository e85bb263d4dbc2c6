// Dataplane: QoS primitives, flow table, middlebox, zero-rating.
#include <gtest/gtest.h>

#include <map>
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
#include "state/expiry_wheel.h"
#include "util/clock.h"
#include "util/rng.h"

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
    EXPECT_EQ(table.bind(key, clock.now())->state, FlowState::kSniffing)
        << "packet " << i;
  }
  EXPECT_EQ(table.bind(key, clock.now())->state, FlowState::kBestEffort);
  // The other direction has a window of its own.
  EXPECT_EQ(table.bind(key.reversed(), clock.now())->state,
            FlowState::kSniffing);
}

TEST(FlowTable, MapFlowCoversReverse) {
  util::ManualClock clock(0);
  FlowTable table;
  net::FiveTuple t;
  t.src_port = 10;
  t.dst_port = 20;
  const ServiceId boost = 7;
  const FlowTable::Ref flow = table.bind(net::FlowKey::from_tuple(t), 0);
  table.map_flow(flow, boost, 0, /*include_reverse=*/true);
  const auto forward = table.lookup(net::FlowKey::from_tuple(t));
  ASSERT_TRUE(forward.has_value());
  EXPECT_EQ(forward.value()->state, FlowState::kMapped);
  const auto reverse = table.lookup(net::FlowKey::from_tuple(t.reversed()));
  ASSERT_TRUE(reverse.has_value());
  EXPECT_EQ(reverse.value()->state, FlowState::kMapped);
  EXPECT_EQ(reverse.value()->service, boost);
  // The reverse mapping is a write into the connection's one slot.
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().flows_created, 1u);
}

TEST(FlowTable, QuietDirectionOfALiveConnectionKeepsItsMapping) {
  // A connection idles out only when neither direction has been seen
  // for idle_timeout: a mapped download whose reverse direction goes
  // quiet for longer than that keeps its service while the forward
  // direction runs.
  FlowTable table(3, 10 * kSecond);
  net::FiveTuple t;
  t.src_port = 10;
  t.dst_port = 20;
  const net::FlowKey forward = net::FlowKey::from_tuple(t);
  table.map_flow(table.bind(forward, 0), 1, 0, /*include_reverse=*/true);
  for (const util::Timestamp at : {5 * kSecond, 10 * kSecond, 15 * kSecond}) {
    table.bind(forward, at);
  }
  EXPECT_EQ(table.bind(forward.reversed(), 15 * kSecond)->state,
            FlowState::kMapped);
}

TEST(FlowTable, IdleExpiry) {
  FlowTable table(3, 10 * kSecond);
  net::FiveTuple t;
  t.src_port = 5;
  const net::FlowKey key = net::FlowKey::from_tuple(t);
  table.bind(key, 0);
  EXPECT_EQ(table.expire_idle(5 * kSecond), 0u);
  EXPECT_EQ(table.expire_idle(11 * kSecond), 1u);
  const auto gone = table.lookup(key);
  ASSERT_FALSE(gone.has_value());
  EXPECT_EQ(gone.error().domain, ErrorDomain::kFlow);
  EXPECT_EQ(gone.error().code, ErrorCode::kUnknownId);
  EXPECT_EQ(table.stats().flows_expired, 1u);
}

TEST(FlowTable, IdleFlowBehindATouchedFlowGoesWithinATick) {
  // A and B are filed in one wheel slot, A first. Touching A moves its
  // due to 15 s; B stays idle and is due at 10.001 s. A bind at 10.1 s
  // walks that slot while it is the current one; B must not wait behind
  // A for 15 s, and must be gone one tick past its due.
  const util::Timestamp idle = 10 * kSecond;
  const util::Timestamp tick = state::ExpiryWheel::tick_for(idle);
  FlowTable table(3, idle);
  const auto key = [](uint16_t port) {
    net::FiveTuple t;
    t.src_port = port;
    return net::FlowKey::from_tuple(t);
  };
  table.bind(key(1), 0);                        // A
  table.bind(key(2), util::kMillisecond);       // B
  table.bind(key(1), 5 * kSecond);              // touch A
  const util::Timestamp c_time = 10 * kSecond + 100 * util::kMillisecond;
  table.bind(key(3), c_time);                   // C
  table.bind(key(3), c_time + tick);
  EXPECT_FALSE(table.lookup(key(2)).has_value()) << "B outlived its due";
  EXPECT_TRUE(table.lookup(key(1)).has_value()) << "A evicted early";
  EXPECT_EQ(table.stats().flows_expired, 1u);
}

// --- FlowTable model: wheel-based idle expiry against a reference ---

/// Total order for the reference map: tuple keys, then CID keys.
struct FlowKeyLess {
  bool operator()(const net::FlowKey& a, const net::FlowKey& b) const {
    if (a.is_cid() != b.is_cid()) return b.is_cid();
    return a.is_cid() ? a.cid() < b.cid() : a.tuple() < b.tuple();
  }
};

/// Drives a FlowTable with seeded random bind / map_flow / add_alias /
/// expire_idle / lookup operations and a clock that takes small steps
/// with jumps past idle_timeout, over tuple keys in both directions and
/// CID keys, and checks it against a std::map reference keyed on
/// connections (a tuple and its reverse, or a CID and its aliases),
/// each holding last_seen and one record per direction:
///  - no connection is evicted before its due (last_seen, the latest
///    packet in either direction, + idle_timeout + 1);
///  - after any bind() or expire_idle() no connection is live at or
///    after its due plus one wheel tick;
///  - size(), flows_created, flows_expired and alias_cids() agree with
///    the reference;
///  - each direction's state, service and packet count agree with the
///    reference's sniff window and mapping lapse, run per direction.
/// A connection the table may evict (due passed, less than a tick ago)
/// is followed wherever the table took it.
class FlowTableModel {
 public:
  static constexpr util::Timestamp kIdle = 10 * kSecond;
  static constexpr uint32_t kWindow = 3;

  explicit FlowTableModel(uint64_t seed)
      : rng_(seed), table_(kWindow, kIdle) {
    for (uint16_t i = 0; i < 12; ++i) {
      net::FiveTuple t;
      // Half the tuples name their connection's first endpoint as the
      // source, half as the destination.
      t.src_ip = net::IpAddress::v4(10, 0, 0, i % 2 == 0 ? 1 : 3);
      t.dst_ip = net::IpAddress::v4(10, 0, 0, 2);
      t.src_port = static_cast<uint16_t>(1000 + i);
      t.dst_port = 443;
      tuples_.push_back(t);
    }
    for (uint64_t cid = 1; cid <= 8; ++cid) cids_.push_back(cid);
  }

  void run(size_t ops) {
    for (size_t op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      step_clock();
      const uint64_t pick = rng_.next_u64(100);
      if (pick < 35) {
        bind(random_key());
      } else if (pick < 55) {
        map(random_key());
      } else if (pick < 65) {
        add_alias();
      } else if (pick < 70) {
        const size_t evicted = table_.expire_idle(now_);
        EXPECT_EQ(evicted, settle(/*advanced=*/true)) << "op " << op;
      } else {
        lookup(random_key());
      }
    }
  }

  uint64_t expired() const { return expired_; }

 private:
  /// One direction of a connection.
  struct Direction {
    FlowState state = FlowState::kSniffing;
    ServiceId service = kNoService;
    uint32_t packets = 0;
    util::Timestamp mapping_expires = 0;
  };
  struct Flow {
    util::Timestamp last_seen = 0;
    Direction directions[2];
  };
  /// A key's connection and which of its directions the key travels.
  struct Connection {
    net::FlowKey key;
    size_t direction = 0;
  };

  void step_clock() {
    now_ += rng_.chance(0.02)
                ? kIdle + static_cast<util::Timestamp>(
                              rng_.next_u64(static_cast<uint64_t>(kIdle)))
                : static_cast<util::Timestamp>(
                      rng_.next_u64(400 * util::kMillisecond));
  }

  net::FlowKey random_key() {
    const uint64_t pick = rng_.next_u64(3);
    if (pick == 2) {
      return net::FlowKey::from_cid(cids_[rng_.next_u64(cids_.size())]);
    }
    const net::FlowKey key =
        net::FlowKey::from_tuple(tuples_[rng_.next_u64(tuples_.size())]);
    return pick == 0 ? key : key.reversed();
  }

  /// A tuple's connection is the tuple whose source endpoint is the
  /// smaller one; a CID's is its canonical CID, with one direction.
  Connection connection(const net::FlowKey& key) const {
    if (key.is_cid()) {
      const auto it = canon_of_.find(key.cid());
      return {it == canon_of_.end() ? key : net::FlowKey::from_cid(it->second),
              0};
    }
    const net::FiveTuple& t = key.tuple();
    const bool against = std::make_pair(t.dst_ip, t.dst_port) <
                         std::make_pair(t.src_ip, t.src_port);
    return {against ? key.reversed() : key, against ? 1u : 0u};
  }

  /// The reference's record of the connection `canon` ending: checks
  /// that the table did not evict it early, and drops its alias set.
  void evicted(const net::FlowKey& canon) {
    const util::Timestamp due = flows_.at(canon).last_seen + kIdle + 1;
    EXPECT_LE(due, now_) << canon.to_string() << " evicted before its due";
    ++expired_;
    flows_.erase(canon);
    if (!canon.is_cid()) return;
    alias_cids_ -= alias_sets_[canon.cid()];
    alias_sets_.erase(canon.cid());
    std::erase_if(canon_of_,
                  [&](const auto& link) { return link.second == canon.cid(); });
  }

  /// Follow the table's evictions and check the contract and counters.
  /// Returns how many connections the reference saw go.
  size_t settle(bool advanced) {
    std::vector<net::FlowKey> gone;
    for (const auto& [key, flow] : flows_) {
      if (!table_.lookup(key).has_value()) {
        gone.push_back(key);
      } else if (advanced) {
        EXPECT_LT(now_, flow.last_seen + kIdle + 1 + tick_)
            << key.to_string() << " live a tick past its due";
      }
    }
    for (const net::FlowKey& key : gone) evicted(key);
    EXPECT_EQ(table_.size(), flows_.size());
    const FlowTableStats stats = table_.stats();
    EXPECT_EQ(stats.flows_created, created_);
    EXPECT_EQ(stats.flows_expired, expired_);
    EXPECT_EQ(table_.alias_cids(), alias_cids_);
    return gone.size();
  }

  void expect_direction(const FlowEntry& entry, const Direction& expected,
                        const net::FlowKey& key) const {
    EXPECT_EQ(entry.state, expected.state) << key.to_string();
    EXPECT_EQ(entry.service, expected.service) << key.to_string();
    EXPECT_EQ(entry.packets_seen, expected.packets) << key.to_string();
    EXPECT_EQ(entry.mapping_expires, expected.mapping_expires)
        << key.to_string();
  }

  /// bind() plus the reference's view of it. The table's creation
  /// count says whether this bind created the connection.
  FlowTable::Ref bind(const net::FlowKey& key) {
    const net::FlowKey before = connection(key).key;
    const bool known = flows_.contains(before);
    const uint64_t creations = table_.stats().flows_created;
    const FlowTable::Ref flow = table_.bind(key, now_);
    const uint64_t created = table_.stats().flows_created - creations;
    EXPECT_LE(created, 1u);
    // Known but created anew: this very bind evicted it first (and, for
    // an alias, its set, so the key now names a connection of its own).
    if (created != 0 && known) evicted(before);
    const Connection conn = connection(key);
    if (created != 0) {
      ++created_;
      flows_[conn.key] = Flow{};
    } else {
      EXPECT_TRUE(known) << key.to_string() << " bound without a record";
    }
    Flow& record = flows_[conn.key];
    record.last_seen = now_;
    Direction& d = record.directions[conn.direction];
    ++d.packets;
    if (d.state == FlowState::kSniffing && d.packets > kWindow) {
      d.state = FlowState::kBestEffort;
    }
    if (d.state == FlowState::kMapped && d.mapping_expires != 0 &&
        now_ >= d.mapping_expires) {
      d = Direction{FlowState::kBestEffort, kNoService, d.packets, 0};
    }
    expect_direction(*flow, d, key);
    EXPECT_EQ(table_.last_seen(key).value(), now_);
    settle(/*advanced=*/true);
    return flow;
  }

  void map(const net::FlowKey& key) {
    const FlowTable::Ref flow = bind(key);
    const bool include_reverse = rng_.chance(0.7);
    const auto service = static_cast<ServiceId>(1 + rng_.next_u64(3));
    const util::Timestamp expires =
        rng_.chance(0.3) ? now_ + static_cast<util::Timestamp>(rng_.next_u64(
                                      static_cast<uint64_t>(kIdle)))
                         : 0;
    table_.map_flow(flow, service, now_, include_reverse, expires);
    const Connection conn = connection(key);
    Flow& record = flows_.at(conn.key);
    record.last_seen = now_;
    for (size_t direction = 0; direction < 2; ++direction) {
      if (direction != conn.direction && (!include_reverse || key.is_cid())) {
        continue;
      }
      Direction& d = record.directions[direction];
      d.state = FlowState::kMapped;
      d.service = service;
      d.mapping_expires = expires;
    }
    expect_direction(*flow, record.directions[conn.direction], key);
    if (include_reverse && key.is_tuple()) {
      const auto reverse = table_.lookup(key.reversed());
      ASSERT_TRUE(reverse.has_value()) << key.reversed().to_string();
      expect_direction(*reverse.value(),
                       record.directions[1 - conn.direction], key.reversed());
    }
    settle(/*advanced=*/false);
  }

  void add_alias() {
    const uint64_t existing = cids_[rng_.next_u64(cids_.size())];
    const uint64_t fresh = next_fresh_cid_++;
    const net::FlowKey canon =
        connection(net::FlowKey::from_cid(existing)).key;
    const auto linked = table_.add_alias(fresh, existing);
    if (!flows_.contains(canon)) {
      EXPECT_FALSE(linked.has_value());
      return;
    }
    ASSERT_TRUE(linked.has_value());
    EXPECT_EQ(linked.value(), canon.cid());
    size_t& set = alias_sets_[canon.cid()];
    if (set == 0) {
      set = 1;  // the canonical CID registers with its first rotation
      ++alias_cids_;
    }
    ++set;
    ++alias_cids_;
    canon_of_[fresh] = canon.cid();
    cids_.push_back(fresh);
    settle(/*advanced=*/false);
  }

  void lookup(const net::FlowKey& key) {
    const auto found = table_.lookup(key);
    const Connection conn = connection(key);
    const auto it = flows_.find(conn.key);
    ASSERT_EQ(found.has_value(), it != flows_.end()) << key.to_string();
    ASSERT_EQ(table_.last_seen(key).has_value(), found.has_value());
    if (found.has_value()) {
      EXPECT_EQ(table_.last_seen(key).value(), it->second.last_seen);
      expect_direction(*found.value(), it->second.directions[conn.direction],
                       key);
    }
  }

  util::Rng rng_;
  FlowTable table_;
  const util::Timestamp tick_ = state::ExpiryWheel::tick_for(kIdle);
  util::Timestamp now_ = 0;
  std::vector<net::FiveTuple> tuples_;
  std::vector<uint64_t> cids_;
  uint64_t next_fresh_cid_ = 1000;
  std::map<net::FlowKey, Flow, FlowKeyLess> flows_;  // by connection
  std::map<uint64_t, uint64_t> canon_of_;  // aliased CID -> canonical CID
  std::map<uint64_t, size_t> alias_sets_;  // canonical CID -> CIDs linked
  size_t alias_cids_ = 0;
  uint64_t created_ = 0;
  uint64_t expired_ = 0;
};

TEST(FlowTable, WheelExpiryMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    FlowTableModel model(seed);
    model.run(5000);
    EXPECT_GT(model.expired(), 0u);
  }
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
  // Differential: a burst through process_batch must produce the same
  // verdicts, stats, and flow states as process() one packet at a
  // time. process() is a burst of one through the same loop, and a
  // burst of one has nothing to defer past a later packet, so it runs
  // in sequential order: this compares one burst against N bursts of
  // one. Two inputs run through both boxes in turn.
  cookies::CookieVerifier verifier_seq(clock_);
  verifier_seq.add_descriptor(descriptor_);
  Middlebox sequential(clock_, verifier_seq, registry_);
  auto gen = generator();

  const auto check = [&](std::vector<net::Packet> burst) {
    std::vector<net::Packet> copy = burst;
    std::vector<Verdict> expected;
    expected.reserve(copy.size());
    for (auto& packet : copy) expected.push_back(sequential.process(packet));

    std::vector<Verdict> batched(burst.size());
    std::vector<net::Packet*> pointers;
    for (auto& packet : burst) pointers.push_back(&packet);
    middlebox_.process_batch(pointers, batched);

    for (size_t i = 0; i < burst.size(); ++i) {
      EXPECT_EQ(batched[i].action.has_value(),
                expected[i].action.has_value())
          << "packet " << i;
      EXPECT_EQ(batched[i].service, expected[i].service)
          << "packet " << i;
      EXPECT_EQ(batched[i].mapped_now, expected[i].mapped_now)
          << "packet " << i;
      EXPECT_EQ(batched[i].verify_status, expected[i].verify_status)
          << "packet " << i;
      EXPECT_EQ(burst[i].dscp, copy[i].dscp) << "packet " << i;
    }
    EXPECT_EQ(middlebox_.stats().task_search,
              sequential.stats().task_search);
    EXPECT_EQ(middlebox_.stats().task_search_and_verify,
              sequential.stats().task_search_and_verify);
    EXPECT_EQ(middlebox_.stats().task_map_only,
              sequential.stats().task_map_only);
    EXPECT_EQ(middlebox_.stats().packets, sequential.stats().packets);
    EXPECT_EQ(middlebox_.stats().bytes, sequential.stats().bytes);
    EXPECT_EQ(verifier_.stats(), verifier_seq.stats());
    EXPECT_EQ(middlebox_.flows().size(), sequential.flows().size());
    return batched;
  };

  {
    SCOPED_TRACE("mixed burst");
    // The awkward cases: a flow's data packet right behind its own
    // cookie, an in-burst replay on a different flow, a
    // reverse-direction packet of a still-pending mapping, and a forged
    // signature.
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
    check(std::move(burst));
  }
  {
    SCOPED_TRACE("cookie storm burst");
    // 32 packets of one-packet cookie flows (every packet queues a
    // cookie), with two packets that must wait for a pending mapping:
    // the reverse of the first flow behind its cookie (a hit on a
    // pending cookie's direction-free hash from the other direction)
    // and, after 15 more cookies, a repeat of the last flow's tuple (a
    // hit from the same direction).
    std::vector<net::Packet> burst;
    for (uint16_t i = 0; i < 15; ++i) {
      burst.push_back(cookie_packet(static_cast<uint16_t>(6000 + i), gen));
    }
    net::Packet reverse = flow_packet(6000);
    reverse.tuple = reverse.tuple.reversed();
    burst.push_back(reverse);
    for (uint16_t i = 15; i < 30; ++i) {
      burst.push_back(cookie_packet(static_cast<uint16_t>(6000 + i), gen));
    }
    burst.push_back(flow_packet(6029));
    ASSERT_EQ(burst.size(), 32u);
    const std::vector<Verdict> verdicts = check(std::move(burst));
    // Both waiting packets saw their flow's mapping land first.
    EXPECT_TRUE(verdicts[15].action.has_value());
    EXPECT_TRUE(verdicts[31].action.has_value());
  }
}

TEST_F(MiddleboxTest, ProcessBatchReadsEachDescriptorBeforeEviction) {
  // VerifyResult::descriptor points into the verifier's hot tier and
  // lives until the next verifier call. With a one-entry tier every
  // admission evicts the previous descriptor, so a holder that read
  // its pointer late would apply another descriptor's attributes. Four
  // descriptors, each with an attribute that changes the verdict, are
  // interleaved with their flows' later and reverse packets in one
  // burst: process_batch on the budget-1 box must give the verdicts
  // process() gives packet by packet on a default-budget twin. Each
  // process() is a burst of one, which has nothing to defer past a
  // later packet and so runs in sequential order.
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
    EXPECT_EQ(batched[i].service, expected[i].service)
        << "packet " << i;
    EXPECT_EQ(batched[i].mapped_now, expected[i].mapped_now)
        << "packet " << i;
  }
  EXPECT_GE(tight.hot_tier().evictions(), 3u);
}

TEST_F(MiddleboxTest, RandomBurstsMatchPacketByPacketTwin) {
  // Seeded random bursts of 1-32 packets through process_batch against
  // the same packets one at a time through process() on a twin shard.
  // Both verifiers hold a small replay clamp (past 24 uuids every
  // fresh one evicts) and a small hot tier (ids go cold and come back),
  // and the clock now and then steps past NCT or the flow idle timeout.
  // A burst's staged prefetches are hints, so everything must match:
  // verdicts, flow state, and the verifiers' and middleboxes' counts.
  constexpr size_t kIds = 24;
  constexpr size_t kFlows = 40;
  constexpr util::Timestamp kIdle = 20 * kSecond;
  Middlebox::Config config;
  config.flow_idle_timeout = kIdle;
  cookies::CookieVerifier staged(clock_);
  cookies::CookieVerifier single(clock_);
  std::vector<cookies::CookieGenerator> gens;
  for (size_t i = 0; i < 4; ++i) {
    registry_.bind("service-" + std::to_string(i), PriorityAction{i});
  }
  for (size_t i = 0; i < kIds; ++i) {
    cookies::CookieDescriptor descriptor;
    descriptor.cookie_id = 100 + i;
    descriptor.key.assign(32, static_cast<uint8_t>(0x20 + i));
    descriptor.service_data = "service-" + std::to_string(i % 4);
    staged.add_descriptor(descriptor);
    single.add_descriptor(descriptor);
    gens.emplace_back(descriptor, clock_, 1000 + i);
  }
  for (cookies::CookieVerifier* verifier : {&staged, &single}) {
    verifier->configure_external_replay(24);
    verifier->set_hot_budget(6);
  }
  Middlebox box(clock_, staged, registry_, config);
  Middlebox twin(clock_, single, registry_, config);

  const auto tuple_of = [](size_t flow, bool reverse) {
    net::FiveTuple t;
    t.src_ip = net::IpAddress::v4(10, 0, 0, static_cast<uint8_t>(flow));
    t.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
    t.src_port = static_cast<uint16_t>(7000 + flow);
    t.dst_port = 443;
    t.proto = net::L4Proto::kUdp;
    return reverse ? t.reversed() : t;
  };
  util::Rng rng(0xB0257);
  std::vector<cookies::Cookie> sent;  // the latest cookies on the wire
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE(round);
    const uint64_t step = rng.next_u64(16);
    if (step == 0) {
      clock_.advance(cookies::kNetworkCoherencyTime + kSecond);
    } else if (step == 1) {
      clock_.advance(kIdle + kSecond);
    } else {
      clock_.advance(static_cast<util::Timestamp>(rng.next_u64(50)) *
                     util::kMillisecond);
    }
    std::vector<net::Packet> burst(1 + rng.next_u64(32));
    for (net::Packet& packet : burst) {
      packet.tuple = tuple_of(rng.next_u64(kFlows), rng.chance(0.2));
      packet.wire_size = 200;
      const uint64_t kind = rng.next_u64(8);
      if (kind < 2) continue;  // no cookie
      // A few ids stay hot; the rest cycle through the small tier.
      const size_t id = rng.chance(0.5) ? rng.next_u64(3) : rng.next_u64(kIds);
      cookies::Cookie cookie = gens[id].generate();
      if (kind == 5 && !sent.empty()) {
        cookie = sent[rng.next_u64(sent.size())];  // replay, maybe in-burst
      } else if (kind == 6) {
        cookie.signature[rng.next_u64(cookie.signature.size())] ^= 0x01;
      } else if (kind == 7) {
        cookie.cookie_id = 9000 + rng.next_u64(4);  // unknown id
      }
      cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
      sent.push_back(cookie);
      if (sent.size() > 48) sent.erase(sent.begin());
    }

    std::vector<net::Packet> copy = burst;
    std::vector<Verdict> expected;
    for (net::Packet& packet : copy) expected.push_back(twin.process(packet));
    std::vector<Verdict> batched(burst.size());
    std::vector<net::Packet*> pointers;
    for (net::Packet& packet : burst) pointers.push_back(&packet);
    box.process_batch(pointers, batched);

    for (size_t i = 0; i < burst.size(); ++i) {
      ASSERT_EQ(batched[i].verify_status, expected[i].verify_status)
          << "packet " << i;
      ASSERT_EQ(batched[i].action, expected[i].action) << "packet " << i;
      ASSERT_EQ(batched[i].service, expected[i].service) << "packet " << i;
      ASSERT_EQ(batched[i].mapped_now, expected[i].mapped_now)
          << "packet " << i;
    }
    for (size_t flow = 0; flow < kFlows; ++flow) {
      for (const bool reverse : {false, true}) {
        const net::FlowKey key = net::FlowKey::from_tuple(tuple_of(flow, reverse));
        const auto got = box.flows().lookup(key);
        const auto want = twin.flows().lookup(key);
        ASSERT_EQ(got.has_value(), want.has_value()) << key.to_string();
        if (!want.has_value()) continue;
        EXPECT_EQ(got.value()->state, want.value()->state) << key.to_string();
        EXPECT_EQ(got.value()->service, want.value()->service)
            << key.to_string();
        EXPECT_EQ(got.value()->packets_seen, want.value()->packets_seen)
            << key.to_string();
      }
    }
    ASSERT_EQ(staged.stats(), single.stats());
    ASSERT_EQ(box.stats(), twin.stats());
    ASSERT_EQ(box.flows().stats(), twin.flows().stats());
  }
  // The mix reached every outcome it is meant to exercise.
  for (const auto status :
       {cookies::VerifyStatus::kOk, cookies::VerifyStatus::kReplayed,
        cookies::VerifyStatus::kBadSignature,
        cookies::VerifyStatus::kUnknownId,
        cookies::VerifyStatus::kStaleTimestamp}) {
    EXPECT_GT(staged.stats().count(status), 0u) << to_string(status);
  }
  EXPECT_GT(staged.external_replay().capacity_evictions(), 0u);
  EXPECT_GT(staged.hot_tier().evictions(), 0u);
  EXPECT_GT(box.flows().stats().flows_expired, 0u);
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
  EXPECT_EQ(verdict.service, kNoService);
  EXPECT_EQ(registry_.id("UnknownService"), kNoService);
  // The flow is mapped all the same, with no action.
  net::Packet data = flow_packet(4005);
  const Verdict next = middlebox_.process(data);
  EXPECT_FALSE(next.action.has_value());
  EXPECT_EQ(middlebox_.stats().task_map_only, 1u);
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

TEST(ServiceRegistry, IdsAreDenseAndOutliveRebindAndUnbind) {
  ServiceRegistry registry;
  const auto boost = registry.bind("Boost", PriorityAction{0});
  const auto slow = registry.bind("Slow", RateLimitAction{1e6, 1500});
  ASSERT_TRUE(boost.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(boost.value(), 1u);
  EXPECT_EQ(slow.value(), 2u);
  EXPECT_EQ(registry.id("Slow"), slow.value());
  EXPECT_EQ(registry.name(slow.value()), "Slow");
  EXPECT_EQ(registry.id("Missing"), kNoService);
  EXPECT_FALSE(registry.action(kNoService).has_value());

  // Rebinding replaces the action under the same id; unbind keeps the
  // id with no action, and a later bind brings the action back to it.
  EXPECT_EQ(registry.bind("Slow", DscpRemarkAction{10}).value(), slow.value());
  EXPECT_TRUE(
      std::holds_alternative<DscpRemarkAction>(*registry.action(slow.value())));
  EXPECT_TRUE(registry.unbind("Boost"));
  EXPECT_EQ(registry.id("Boost"), boost.value());
  EXPECT_FALSE(registry.action(boost.value()).has_value());
  EXPECT_EQ(registry.bind("Boost", ZeroRateAction{}).value(), boost.value());
  EXPECT_TRUE(registry.action(boost.value()).has_value());
}

TEST(ServiceRegistry, RefusesANewNameOnceEveryIdIsTaken) {
  ServiceRegistry registry;
  for (uint32_t i = 1; i <= 65'535; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    const auto id = registry.bind(name, PriorityAction{0});
    ASSERT_TRUE(id.has_value()) << i;
    ASSERT_EQ(id.value(), i);
  }
  const auto refused = registry.bind("one-too-many", PriorityAction{0});
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(registry.id("one-too-many"), kNoService);
  // A name that already has an id still rebinds.
  EXPECT_EQ(registry.bind("s1", ZeroRateAction{}).value(), 1u);
}

TEST(ServiceRegistry, ActionToString) {
  EXPECT_EQ(to_string(ServiceAction{PriorityAction{2}}), "priority(band=2)");
  EXPECT_EQ(to_string(ServiceAction{ZeroRateAction{}}), "zero-rate");
  EXPECT_EQ(to_string(ServiceAction{DscpRemarkAction{46}}),
            "dscp-remark(46)");
}

}  // namespace
}  // namespace nnn::dataplane
