// QUIC-shaped encrypted transport (PR 10): FlowKey unification,
// CID alias resolution, rotation/migration survival, DPI collapse,
// and steering stability. The survival and collapse numbers asserted
// here are the tested form of the acceptance gates that
// bench/ablation_quic measures and CI's quic-smoke job enforces.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "baselines/dpi.h"
#include "baselines/oob.h"
#include "controlplane/epoch.h"
#include "controlplane/table_mirror.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/flow_table.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/flow_key.h"
#include "net/packet.h"
#include "quic/alias_table.h"
#include "quic/workload.h"
#include "runtime/dataplane.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/hash.h"

namespace nnn {
namespace {

using util::kMillisecond;
using util::kSecond;

net::FiveTuple quic_tuple() {
  return net::FiveTuple{net::IpAddress::v4(10, 0, 0, 1),
                        net::IpAddress::v4(203, 0, 113, 1), 40000, 443,
                        net::L4Proto::kUdp};
}

// --- FlowKey -------------------------------------------------------

// Fixed vectors: steer_key feeds shard assignment (util::steer_shard)
// and FlatTable probing, so its value is wire-adjacent state — a
// platform or refactor that changes it reassigns every flow to a new
// worker. Pin it like the mix64 vectors in test_arena. It hashes the
// direction-free form, so both directions of a flow share one value,
// one shard and one std::hash.
TEST(FlowKey, SteerKeyFixedVectors) {
  const net::FlowKey tuple_key = net::FlowKey::from_tuple(quic_tuple());
  EXPECT_EQ(tuple_key.steer_key(), 0xb4e29ab30a33c264ull);
  EXPECT_EQ(tuple_key.reversed().steer_key(), 0xb4e29ab30a33c264ull);
  EXPECT_EQ(util::steer_shard(tuple_key.steer_key(), 8), 5u);
  EXPECT_EQ(util::steer_shard(tuple_key.reversed().steer_key(), 8), 5u);
  EXPECT_EQ(std::hash<net::FlowKey>{}(tuple_key),
            std::hash<net::FlowKey>{}(tuple_key.reversed()));

  // A CID is already a uniform 64-bit name: steer_key is the identity
  // (steer_shard applies its own mix64 on top).
  const net::FlowKey cid_key = net::FlowKey::from_cid(0xdeadbeefcafef00dull);
  EXPECT_EQ(cid_key.steer_key(), 0xdeadbeefcafef00dull);
}

TEST(FlowKey, KindsEqualityAndReversal) {
  const net::FlowKey tuple_key = net::FlowKey::from_tuple(quic_tuple());
  const net::FlowKey cid_key = net::FlowKey::from_cid(7);

  EXPECT_TRUE(tuple_key.is_tuple());
  EXPECT_TRUE(cid_key.is_cid());
  EXPECT_FALSE(tuple_key == cid_key);
  EXPECT_TRUE(cid_key == net::FlowKey::from_cid(7));

  // CID keys name the connection, not a direction.
  EXPECT_TRUE(cid_key.reversed() == cid_key);
  EXPECT_FALSE(tuple_key.reversed() == tuple_key);
  EXPECT_TRUE(tuple_key.reversed().reversed() == tuple_key);

  EXPECT_EQ(std::hash<net::FlowKey>{}(cid_key),
            std::hash<net::FlowKey>{}(net::FlowKey::from_cid(7)));
}

TEST(FlowKey, PacketAccessorUnifiesKeying) {
  net::Packet classic;
  classic.tuple = quic_tuple();
  EXPECT_TRUE(classic.flow_key() == net::FlowKey::from_tuple(classic.tuple));

  net::Packet encrypted = classic;
  net::QuicHeader header;
  header.dcid = 0x1234;
  encrypted.quic = header;
  EXPECT_TRUE(encrypted.flow_key() == net::FlowKey::from_cid(0x1234));

  // OOB speaks 5-tuples only: the same rule matches the cleartext
  // packet and cannot name the encrypted one at all.
  baselines::OobSwitch sw;
  sw.install({baselines::FlowDescription::exact(classic.tuple), "fast"});
  EXPECT_TRUE(sw.match(classic).has_value());
  EXPECT_FALSE(sw.match(encrypted).has_value());
}

// --- CidAliasTable -------------------------------------------------

TEST(CidAliasTable, RotationChainResolvesToCanonical) {
  quic::CidAliasTable table;
  ASSERT_TRUE(table.bind(/*canonical=*/100, /*steer=*/77));
  EXPECT_FALSE(table.bind(100, 99)) << "bind is idempotent per canonical";

  // s0 joins at the handshake; c1 rotates in via s0, c2 via c1.
  ASSERT_TRUE(table.alias(200, 100).has_value());
  ASSERT_EQ(table.alias(300, 200).value(), 100u);
  ASSERT_EQ(table.alias(400, 300).value(), 100u);

  for (const uint64_t cid : {100u, 200u, 300u, 400u}) {
    EXPECT_EQ(table.resolve(cid), 100u);
    EXPECT_EQ(table.steer_key(cid).value(), 77u);
  }
  EXPECT_EQ(table.connections(), 1u);
  EXPECT_EQ(table.cids(), 4u);

  // Unknown CIDs are their own connection; an unlinkable rotation
  // marker reports kFlow/kUnknownId and changes nothing.
  EXPECT_EQ(table.resolve(999), 999u);
  const auto unlinked = table.alias(500, 999);
  ASSERT_FALSE(unlinked.has_value());
  EXPECT_EQ(unlinked.error().domain, ErrorDomain::kFlow);
  EXPECT_EQ(unlinked.error().code, ErrorCode::kUnknownId);
  EXPECT_EQ(table.cids(), 4u);
}

TEST(CidAliasTable, EvictionDropsWholeAliasSet) {
  quic::CidAliasTable table;
  table.bind(1, 0);
  table.alias(2, 1);
  table.alias(3, 2);
  EXPECT_EQ(table.evict(3), 3u) << "evict by any CID of the connection";
  EXPECT_EQ(table.connections(), 0u);
  EXPECT_EQ(table.cids(), 0u);
  EXPECT_EQ(table.resolve(2), 2u);
  EXPECT_EQ(table.evict(1), 0u) << "double eviction is a no-op";
}

TEST(CidAliasTable, UnboundedTableHoldsNoBindOrderQueue) {
  // Every worker's FlowTable embeds an unbounded table: it binds each
  // QUIC connection there and evicts it when the flow idles out. A
  // bind-order queue, which only capacity eviction reads, would keep a
  // record of every connection ever bound. Sanitizer allocators bypass
  // glibc's counters, so under ASan this reads no growth and checks
  // nothing.
  quic::CidAliasTable table(quic::CidAliasConfig{.max_connections = 0});
  uint64_t next_cid = 1;
  const auto cycle = [&] {
    const uint64_t canonical = next_cid++;
    table.bind(canonical, 0);
    table.alias(next_cid++, canonical);
    table.evict(canonical);
  };
  // Warm up: the index, pool and free list reach their steady size.
  for (int i = 0; i < 1000; ++i) cycle();
  const size_t before = mallinfo2().uordblks;
  for (int i = 0; i < 100'000; ++i) cycle();
  const size_t after = mallinfo2().uordblks;
  EXPECT_LT(after > before ? after - before : 0, size_t{64} << 10);
  EXPECT_EQ(table.connections(), 0u);
}

TEST(CidAliasTable, CapacityFifoSkipsReboundSlots) {
  quic::CidAliasTable table(quic::CidAliasConfig{.max_connections = 2});
  table.bind(10, 0);  // slot 0
  table.bind(20, 0);  // slot 1
  table.evict(10);    // slot 0 freed; its FIFO entry is now stale
  table.bind(30, 0);  // reuses slot 0 under a fresh generation
  table.bind(40, 0);  // over capacity: must evict the OLDEST live (20)

  EXPECT_EQ(table.connections(), 2u);
  EXPECT_EQ(table.resolve(20), 20u) << "20 should have been evicted";
  // The generation guard is what protects 30 here: slot 0's stale
  // FIFO entry (connection 10) must not take the rebound slot down.
  EXPECT_TRUE(table.steer_key(30).has_value());
  EXPECT_TRUE(table.steer_key(40).has_value());
  EXPECT_GE(table.stats().connections_evicted, 2u);
}

// --- FlowTable -----------------------------------------------------

TEST(FlowTable, CidRotationKeepsOneEntry) {
  dataplane::FlowTable table;
  const dataplane::FlowEntry& first =
      *table.bind(net::FlowKey::from_cid(100), 0);
  ASSERT_EQ(table.stats().flows_created, 1u);

  ASSERT_EQ(table.add_alias(200, 100).value(), 100u);
  const dataplane::FlowEntry& rotated =
      *table.bind(net::FlowKey::from_cid(200), kMillisecond);
  EXPECT_EQ(table.stats().flows_created, 1u);
  EXPECT_EQ(&rotated, &first);
  EXPECT_EQ(rotated.packets_seen, 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.resolve_cid(200), 100u);
  EXPECT_EQ(table.stats().aliases_added, 1u);

  // Re-linking a CID that is already linked is no rotation: the
  // middlebox re-links the server's CID on every long header.
  ASSERT_EQ(table.add_alias(200, 100).value(), 100u);
  ASSERT_EQ(table.add_alias(100, 100).value(), 100u);
  EXPECT_EQ(table.alias_cids(), 2u);
  EXPECT_EQ(table.stats().aliases_added, 1u);

  // A marker naming a CID no flow is keyed on cannot link (fail-open:
  // the fresh CID would simply start its own flow).
  const auto unlinked = table.add_alias(300, 999);
  ASSERT_FALSE(unlinked.has_value());
  EXPECT_EQ(unlinked.error().code, ErrorCode::kUnknownId);
}

TEST(FlowTable, IdleExpiryEvictsAliasSetWithTheFlow) {
  dataplane::FlowTable table(dataplane::FlowTable::kDefaultSniffWindow,
                             /*idle_timeout=*/10 * kMillisecond);
  table.bind(net::FlowKey::from_cid(100), 0);
  table.add_alias(200, 100);
  table.add_alias(300, 200);
  EXPECT_EQ(table.alias_cids(), 3u);

  EXPECT_EQ(table.expire_idle(kSecond), 1u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.alias_cids(), 0u) << "dead flow leaked alias entries";
  EXPECT_EQ(table.resolve_cid(300), 300u);

  // The CID can start a brand-new flow afterwards.
  EXPECT_EQ(table.bind(net::FlowKey::from_cid(300), kSecond)->packets_seen,
            1u);
  EXPECT_EQ(table.stats().flows_created, 2u);
}

// --- workload ------------------------------------------------------

TEST(QuicTrace, SameSeedSameStream) {
  util::ManualClock clock_a;
  util::ManualClock clock_b;
  quic::QuicTraceGenerator::Config config;
  config.connections = 8;
  config.packets_per_connection = 30;
  quic::QuicTraceGenerator a(config, clock_a, nullptr, 42);
  quic::QuicTraceGenerator b(config, clock_b, nullptr, 42);

  uint32_t rotations_seen = 0;
  for (size_t i = 0; i < a.total_packets(); ++i) {
    net::Packet pa;
    net::Packet pb;
    ASSERT_EQ(a.fill_next(pa), b.fill_next(pb)) << "pick diverged at " << i;
    ASSERT_TRUE(pa.tuple == pb.tuple);
    ASSERT_TRUE(pa.is_quic());
    ASSERT_EQ(pa.quic->dcid, pb.quic->dcid);
    ASSERT_EQ(pa.quic->prev_cid, pb.quic->prev_cid);
    ASSERT_EQ(pa.payload, pb.payload);
    if (pa.quic->prev_cid) ++rotations_seen;
    clock_a.advance(50);
    clock_b.advance(50);
  }
  EXPECT_TRUE(a.done());
  EXPECT_GT(rotations_seen, 0u) << "trace never rotated a CID";
}

// --- the tentpole claim, single middlebox --------------------------

// One encrypted trace with CID rotations AND seeded NAT rebinds
// through the cookie middlebox: every post-handshake packet of a
// cookie connection must keep its band-0 mapping (the cookie was
// presented exactly once, in the handshake). The same packets through
// the DPI baseline: accuracy collapses to ~0 — the differential the
// paper's carriers could never exhibit because their payloads were
// readable.
TEST(QuicMiddlebox, CookieOnceSurvivesRotationAndMigrationWhereDpiDies) {
  util::ManualClock clock;
  cookies::CookieVerifier verifier(clock);
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  dataplane::Middlebox middlebox(clock, verifier, registry);

  quic::QuicTraceGenerator::Config config;
  config.connections = 48;
  config.packets_per_connection = 80;
  config.rotate_every = 12;  // several rotations per connection
  quic::QuicTraceGenerator gen(config, clock, &verifier, 7);

  // Two migration windows, magnitude 1.0: every connection rebinds
  // once per window.
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kNatRebind, 40 * kMillisecond,
            40 * kMillisecond, 1.0});
  plan.add({fault::FaultKind::kNatRebind, 120 * kMillisecond,
            40 * kMillisecond, 1.0});
  fault::Injector injector;
  injector.arm(plan, 7);
  gen.set_fault_injector(&injector);

  baselines::DpiEngine dpi;
  for (auto& rule : quic::QuicTraceGenerator::dpi_rules()) {
    dpi.add_rule(std::move(rule));
  }

  uint64_t survived = 0, post_handshake = 0, handshakes_mapped = 0;
  uint64_t dpi_correct = 0, dpi_total = 0;
  for (size_t i = 0; i < gen.total_packets(); ++i) {
    net::Packet packet;
    const uint32_t conn = gen.fill_next(packet);
    const auto dpi_label = dpi.classify(packet);
    ++dpi_total;
    if (dpi_label && *dpi_label == gen.connection(conn).app) ++dpi_correct;

    const dataplane::Verdict verdict = middlebox.process(packet);
    clock.advance(50);
    if (!gen.connection(conn).has_cookie) continue;
    if (verdict.mapped_now) {
      ++handshakes_mapped;
    } else {
      ++post_handshake;
      if (verdict.action.has_value()) ++survived;
    }
  }

  EXPECT_EQ(handshakes_mapped, config.connections)
      << "every cookie handshake should map exactly once";
  uint32_t migrations = 0, rotations = 0;
  for (size_t c = 0; c < config.connections; ++c) {
    migrations += gen.connection(c).migrations;
    rotations += gen.connection(c).rotations;
  }
  EXPECT_GE(migrations, config.connections)
      << "the fault plan should migrate every connection at least once";
  EXPECT_GT(rotations, config.connections);

  ASSERT_GT(post_handshake, 0u);
  const double survival =
      static_cast<double>(survived) / static_cast<double>(post_handshake);
  EXPECT_GE(survival, 0.99) << survived << "/" << post_handshake;

  const double dpi_accuracy =
      static_cast<double>(dpi_correct) / static_cast<double>(dpi_total);
  EXPECT_LE(dpi_accuracy, 0.01) << "ciphertext should be unclassifiable";
}

TEST(QuicDpi, CleartextControlStillClassifies) {
  util::ManualClock clock;
  quic::QuicTraceGenerator::Config config;
  config.connections = 32;
  config.packets_per_connection = 40;
  config.cleartext = true;
  quic::QuicTraceGenerator gen(config, clock, nullptr, 7);

  baselines::DpiEngine dpi;
  for (auto& rule : quic::QuicTraceGenerator::dpi_rules()) {
    dpi.add_rule(std::move(rule));
  }

  uint64_t correct = 0, total = 0;
  for (size_t i = 0; i < gen.total_packets(); ++i) {
    net::Packet packet;
    const uint32_t conn = gen.fill_next(packet);
    const auto label = dpi.classify(packet);
    ++total;
    if (label && *label == gen.connection(conn).app) ++correct;
  }
  // The flow cache is directional (DPI sees the SNI only client->
  // server), so the ceiling is ~half the packets — still orders of
  // magnitude above the encrypted trace's ~0.
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(total);
  EXPECT_GE(accuracy, 0.45);
}

// --- steering ------------------------------------------------------

// Descriptor affinity must keep every packet of a connection on one
// shard across CID rotations and NAT rebinds (the use-once check is
// only locally verifiable if the descriptor's cookies stay put). The
// naive flow-hash balancer is the control: rotation re-rolls its hash,
// so connections visibly smear across shards.
TEST(QuicSharding, AffinitySurvivesMigrationFlowHashDoesNot) {
  constexpr size_t kShards = 8;
  auto run = [&](dataplane::DispatchPolicy policy) {
    // The plane's clock stays frozen while its workers run; the trace
    // advances its own clock.
    util::ManualClock plane_clock;
    dataplane::ServiceRegistry registry;
    registry.bind("Boost", dataplane::PriorityAction{0});
    runtime::Dataplane::Config plane_config;
    plane_config.policy = policy;
    plane_config.pool.workers = kShards;
    plane_config.pool.verdict_capacity = 1 << 12;
    runtime::Dataplane plane(plane_clock, registry, plane_config);

    quic::QuicTraceGenerator::Config config;
    config.connections = 32;
    config.packets_per_connection = 60;
    config.rotate_every = 10;
    util::ManualClock trace_clock;
    cookies::CookieVerifier staging(trace_clock);
    quic::QuicTraceGenerator gen(config, trace_clock, &staging, 11);
    for (const auto& d : gen.descriptors()) plane.add_descriptor(d);

    fault::FaultPlan plan;
    plan.add({fault::FaultKind::kNatRebind, 20 * kMillisecond,
              100 * kMillisecond, 1.0});
    fault::Injector injector;
    injector.arm(plan, 11);
    gen.set_fault_injector(&injector);

    plane.start();
    for (size_t i = 0; i < gen.total_packets(); ++i) {
      runtime::PacketHandle h = plane.make_packet();
      while (!h) {
        std::this_thread::yield();
        h = plane.make_packet();
      }
      gen.fill_next(*h);
      plane.ingest_blocking(std::move(h));
      trace_clock.advance(50);
    }
    plane.drain();
    plane.stop();

    // Each verdict names the worker that processed the packet; the
    // generator stamps the connection index into seq.
    std::vector<runtime::VerdictRecord> verdicts;
    plane.drain_verdicts(verdicts);
    EXPECT_EQ(verdicts.size(), gen.total_packets());
    std::vector<std::set<size_t>> shards_touched(config.connections);
    for (const auto& v : verdicts) shards_touched[v.seq].insert(v.worker);

    size_t migrated = 0, stable = 0;
    for (size_t c = 0; c < config.connections; ++c) {
      if (gen.connection(c).migrations > 0) ++migrated;
      if (shards_touched[c].size() == 1) ++stable;
    }
    EXPECT_GT(migrated, 0u);
    return stable;
  };

  EXPECT_EQ(run(dataplane::DispatchPolicy::kDescriptorAffinity), 32u)
      << "affinity lost a connection across rotation/migration";
  EXPECT_LT(run(dataplane::DispatchPolicy::kFlowHash), 32u)
      << "flow hash should smear rotating connections across shards";
}

// --- runtime: migration during epoch swap (TSan target) ------------

// The full threaded path under churn: a producer ingests the
// encrypted trace (rotations + seeded migrations) through the
// Dataplane facade while a control thread swaps descriptor tables as
// fast as it can. Asserts the shed ledger balances, the arena leaks
// nothing, and band-0 survival holds — while TSan watches the epoch
// pin/publish protocol against the new CID steering state.
TEST(QuicRuntime, MigrationDuringEpochSwapKeepsLedgerAndMapping) {
  // Workers read the clock concurrently, so the plane's ManualClock
  // stays frozen at 0; the trace runs on its own producer-side clock.
  // The whole trace spans ~100 ms of virtual time, well inside the NCT
  // window, so cookies minted on the trace clock verify at now() == 0.
  util::ManualClock plane_clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});

  runtime::Dataplane::Config config;
  config.pool.workers = 3;
  config.pool.verdict_capacity = 1 << 15;
  runtime::Dataplane plane(plane_clock, registry, config);

  quic::QuicTraceGenerator::Config wl;
  wl.connections = 32;
  wl.packets_per_connection = 60;
  wl.rotate_every = 10;
  util::ManualClock trace_clock;
  cookies::CookieVerifier staging(trace_clock);
  quic::QuicTraceGenerator gen(wl, trace_clock, &staging, 23);

  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kNatRebind, 10 * kMillisecond,
            100 * kMillisecond, 1.0});
  fault::Injector injector;
  injector.arm(plan, 23);
  gen.set_fault_injector(&injector);

  controlplane::TablePublisher tables;
  plane.bind_table_publisher(tables);
  auto build = [&](uint64_t version) {
    controlplane::TableMirror mirror;
    mirror.reset(version, gen.descriptors(), {});
    return mirror.build();
  };
  tables.publish(build(1));
  plane.start();

  // The overlap is certain, not likely: the swapper publishes at least
  // twice before it honours stop, and the producer starts only after
  // the first of those publishes.
  std::atomic<bool> stop_swapping{false};
  std::atomic<int> publishes{0};
  std::thread swapper([&] {
    uint64_t version = 2;
    while (publishes.load(std::memory_order_relaxed) < 2 ||
           !stop_swapping.load(std::memory_order_acquire)) {
      tables.publish(build(version++));
      tables.try_reclaim();
      publishes.fetch_add(1, std::memory_order_release);
    }
  });
  while (publishes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  const size_t total = gen.total_packets();
  for (size_t i = 0; i < total; ++i) {
    runtime::PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    const uint32_t conn = gen.fill_next(*h);
    (void)conn;
    trace_clock.advance(50);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  plane.stop();
  tables.try_reclaim();

  EXPECT_EQ(tables.retired_count(), 0u);
  EXPECT_GT(tables.epoch(), 2u) << "swapper never actually swapped";
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "arena leaked slots";

  const runtime::WorkerSnapshot totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, total) << "ledger imbalance";
  EXPECT_EQ(totals.shed, 0u) << "ingest_blocking should not shed";

  // Survival from the verdict stream: per connection, every packet
  // after the mapping one keeps band-0.
  std::vector<runtime::VerdictRecord> verdicts;
  plane.drain_verdicts(verdicts);
  ASSERT_EQ(verdicts.size(), total);
  uint64_t survived = 0, post_handshake = 0;
  for (const auto& v : verdicts) {
    if (v.mapped_now) continue;
    ++post_handshake;
    if (v.has_action) ++survived;
  }
  ASSERT_GT(post_handshake, 0u);
  EXPECT_GE(static_cast<double>(survived) /
                static_cast<double>(post_handshake),
            0.99);
}

// One export per fact: only the balancer's alias table exports
// nnn_quic_*, so each connection counts once, although every worker's
// flow table also binds the connections it serves.
TEST(QuicRuntime, ExportsEachConnectionOnce) {
  util::ManualClock plane_clock;  // frozen, as above
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config;
  config.pool.workers = 2;
  runtime::Dataplane plane(plane_clock, registry, config);

  quic::QuicTraceGenerator::Config wl;
  wl.connections = 32;
  wl.packets_per_connection = 60;
  wl.rotate_every = 10;
  util::ManualClock trace_clock;
  quic::QuicTraceGenerator gen(wl, trace_clock, nullptr, 23);
  for (const auto& d : gen.descriptors()) plane.add_descriptor(d);

  plane.start();
  for (size_t i = 0; i < gen.total_packets(); ++i) {
    runtime::PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    gen.fill_next(*h);
    trace_clock.advance(50);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  plane.stop();

  const telemetry::Snapshot snap = telemetry::Registry::global().snapshot();
  const telemetry::Family* connections = snap.find("nnn_quic_connections");
  ASSERT_NE(connections, nullptr);
  ASSERT_EQ(connections->samples.size(), 1u);
  EXPECT_EQ(connections->samples[0].gauge_value, 32);
  EXPECT_EQ(snap.counter_total("nnn_quic_connections_bound_total"), 32u);
}

}  // namespace
}  // namespace nnn
