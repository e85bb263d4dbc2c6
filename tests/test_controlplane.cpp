// Control plane: descriptor log versioning, snapshot/delta sync,
// epoch-swapped table publication, and revocation propagation into a
// running dataplane. The VerifyDuringSwap test is a TSan CI target.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/local_subscriber.h"
#include "controlplane/messages.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "controlplane/table_mirror.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/service_registry.h"
#include "net/packet.h"
#include "runtime/dataplane.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "util/clock.h"

namespace nnn::controlplane {
namespace {

using util::kMillisecond;
using util::kSecond;

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(0x40 + id));
  d.service_data = "Boost";
  return d;
}

// --- DescriptorLog -------------------------------------------------

TEST(DescriptorLog, VersionsAreMonotonicAcrossOps) {
  DescriptorLog log;
  EXPECT_EQ(log.version(), 0u);
  EXPECT_EQ(log.append_add(make_descriptor(1)), 1u);
  EXPECT_EQ(log.append_add(make_descriptor(2)), 2u);
  EXPECT_EQ(log.append_revoke(1), 3u);
  EXPECT_EQ(log.append_remove(2), 4u);
  EXPECT_EQ(log.version(), 4u);
  EXPECT_EQ(log.live_count(), 0u);  // 1 revoked, 2 removed
}

TEST(DescriptorLog, SnapshotReflectsLiveAndTombstones) {
  DescriptorLog log;
  log.append_add(make_descriptor(1));
  log.append_add(make_descriptor(2));
  log.append_revoke(1);
  const Snapshot snap = log.snapshot();
  EXPECT_EQ(snap.version, 3u);
  ASSERT_EQ(snap.live.size(), 1u);
  EXPECT_EQ(snap.live[0].cookie_id, 2u);
  ASSERT_EQ(snap.revoked.size(), 1u);
  EXPECT_EQ(snap.revoked[0], 1u);
  // Re-granting a revoked id clears the tombstone.
  log.append_add(make_descriptor(1));
  EXPECT_TRUE(log.snapshot().revoked.empty());
  EXPECT_EQ(log.live_count(), 2u);
}

TEST(DescriptorLog, DeltaSinceAndCompaction) {
  DescriptorLog log;
  for (cookies::CookieId id = 1; id <= 6; ++id) {
    log.append_add(make_descriptor(id));
  }
  const auto all = log.delta_since(0);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), 6u);
  EXPECT_EQ(all->front().version, 1u);
  EXPECT_EQ(all->back().version, 6u);
  // An in-range `from` at the head yields an empty delta.
  EXPECT_TRUE(log.delta_since(6)->empty());
  // The future is never servable.
  EXPECT_FALSE(log.delta_since(7).has_value());

  log.compact(/*keep_updates=*/2);
  EXPECT_EQ(log.retained_updates(), 2u);
  EXPECT_FALSE(log.delta_since(3).has_value());  // compacted away
  const auto tail = log.delta_since(4);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->size(), 2u);
  EXPECT_EQ(tail->front().version, 5u);
}

TEST(DescriptorLog, ExpireDueAppendsRemovals) {
  DescriptorLog log;
  auto ephemeral = make_descriptor(1);
  ephemeral.attributes.expires_at = 100 * kSecond;
  log.append_add(ephemeral);
  log.append_add(make_descriptor(2));  // no expiry

  EXPECT_EQ(log.expire_due(50 * kSecond), 0u);
  EXPECT_EQ(log.expire_due(200 * kSecond), 1u);
  EXPECT_EQ(log.live_count(), 1u);
  const auto delta = log.delta_since(2);
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ(delta->front().op, UpdateOp::kRemove);
  EXPECT_EQ(delta->front().id, 1u);
  // Idempotent: nothing left to expire.
  EXPECT_EQ(log.expire_due(300 * kSecond), 0u);
}

TEST(DescriptorLog, ObserversSeeUpdatesUntilUnsubscribed) {
  DescriptorLog log;
  std::vector<Update> seen;
  const uint64_t token =
      log.subscribe([&seen](const Update& u) { seen.push_back(u); });
  log.append_add(make_descriptor(1));
  log.append_revoke(1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].op, UpdateOp::kAdd);
  EXPECT_EQ(seen[1].op, UpdateOp::kRevoke);
  EXPECT_EQ(seen[1].version, 2u);
  log.unsubscribe(token);
  log.append_remove(1);
  EXPECT_EQ(seen.size(), 2u);
}

// --- TableMirror ---------------------------------------------------

TEST(TableMirror, ResetApplyAndBuild) {
  DescriptorLog log;
  log.append_add(make_descriptor(1));
  log.append_add(make_descriptor(2));
  log.append_revoke(2);

  TableMirror mirror;
  const Snapshot snap = log.snapshot();
  mirror.reset(snap.version, snap.live, snap.revoked);
  EXPECT_EQ(mirror.version(), 3u);
  EXPECT_EQ(mirror.size(), 2u);  // live + tombstone

  log.append_add(make_descriptor(3));
  log.append_revoke(1);
  const auto delta = log.delta_since(3);
  for (const Update& u : *delta) {
    EXPECT_TRUE(mirror.apply(u));
  }
  EXPECT_EQ(mirror.version(), 5u);

  const auto table = mirror.build();
  EXPECT_EQ(table->version(), 5u);
  ASSERT_NE(table->find(1), nullptr);
  EXPECT_TRUE(table->find(1)->revoked);
  ASSERT_NE(table->find(2), nullptr);
  EXPECT_TRUE(table->find(2)->revoked);
  ASSERT_NE(table->find(3), nullptr);
  EXPECT_FALSE(table->find(3)->revoked);
}

TEST(TableMirror, RejectsOutOfOrderUpdates) {
  TableMirror mirror;
  Update first;
  first.version = 1;
  first.op = UpdateOp::kAdd;
  first.id = 1;
  first.descriptor = make_descriptor(1);
  ASSERT_TRUE(mirror.apply(first));
  Update gap = first;
  gap.version = 3;  // skips 2
  gap.id = 2;
  gap.descriptor = make_descriptor(2);
  EXPECT_FALSE(mirror.apply(gap));
  EXPECT_EQ(mirror.version(), 1u);
  Update dup = first;  // duplicate of an applied version
  EXPECT_FALSE(mirror.apply(dup));
}

// --- TablePublisher ------------------------------------------------

std::unique_ptr<cookies::DescriptorTable> table_at(uint64_t version) {
  TableMirror mirror;
  std::vector<cookies::CookieDescriptor> live = {make_descriptor(1)};
  mirror.reset(version, std::move(live), {});
  return mirror.build();
}

TEST(TablePublisher, PinnedTableSurvivesSwapUntilQuiescence) {
  TablePublisher publisher;
  TablePublisher::Reader reader = publisher.register_reader();
  EXPECT_TRUE(reader.attached());
  EXPECT_EQ(reader.acquire(), nullptr);  // nothing published yet

  publisher.publish(table_at(1));
  const cookies::DescriptorTable* pinned = reader.acquire();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(pinned->epoch(), 1u);

  // Swap while the reader still announces the old table: the old table
  // must be retired, not freed (the reader keeps using it).
  publisher.publish(table_at(2));
  EXPECT_EQ(publisher.retired_count(), 1u);
  EXPECT_EQ(pinned->version(), 1u);  // still readable
  EXPECT_EQ(publisher.try_reclaim(), 0u);  // still pinned

  // Quiescent point: re-acquire announces the new table...
  const cookies::DescriptorTable* fresh = reader.acquire();
  EXPECT_EQ(fresh->version(), 2u);
  EXPECT_EQ(publisher.try_reclaim(), 1u);
  EXPECT_EQ(publisher.retired_count(), 0u);

  // ...and park() releases the pin entirely.
  publisher.publish(table_at(3));
  reader.acquire();
  publisher.publish(table_at(4));
  reader.park();
  publisher.try_reclaim();
  EXPECT_EQ(publisher.retired_count(), 0u);
  EXPECT_EQ(publisher.epoch(), 4u);
}

TEST(TablePublisher, DetachedReaderIsInert) {
  TablePublisher::Reader reader;
  EXPECT_FALSE(reader.attached());
  EXPECT_EQ(reader.acquire(), nullptr);
  reader.park();  // no-op, must not crash
}

// --- SyncServer ----------------------------------------------------

template <typename T>
const T* expect_response(const std::optional<util::Bytes>& bytes) {
  if (!bytes.has_value()) return nullptr;
  static std::optional<Message> decoded;
  auto message = decode_message(util::BytesView(*bytes));
  if (!message.has_value()) return nullptr;
  decoded = std::move(message).value();
  return std::get_if<T>(&*decoded);
}

TEST(SyncServer, ServesSnapshotDeltaHeartbeat) {
  DescriptorLog log;
  SyncServer server(log);
  log.append_add(make_descriptor(1));
  log.append_add(make_descriptor(2));

  // Fresh client: full snapshot.
  const auto* snap =
      expect_response<SnapshotMessage>(server.handle(
          util::BytesView(encode(SyncRequest{7, 0}))));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 2u);
  EXPECT_EQ(snap->live.size(), 2u);

  // Small servable gap: delta.
  log.append_revoke(1);
  const auto* delta =
      expect_response<DeltaMessage>(server.handle(
          util::BytesView(encode(SyncRequest{7, 2}))));
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->from_version, 2u);
  EXPECT_EQ(delta->to_version, 3u);
  ASSERT_EQ(delta->updates.size(), 1u);
  EXPECT_EQ(delta->updates[0].op, UpdateOp::kRevoke);

  // Caught up: heartbeat.
  const auto* heartbeat =
      expect_response<HeartbeatMessage>(server.handle(
          util::BytesView(encode(SyncRequest{7, 3}))));
  ASSERT_NE(heartbeat, nullptr);
  EXPECT_EQ(heartbeat->version, 3u);

  EXPECT_EQ(server.min_client_version(), 3u);
}

TEST(SyncServer, FallsBackToSnapshotPastCompactionOrLargeGaps) {
  DescriptorLog log;
  for (cookies::CookieId id = 1; id <= 8; ++id) {
    log.append_add(make_descriptor(id));
  }
  log.compact(2);

  SyncServer server(log);
  // Gap starts before the retained tail: snapshot.
  EXPECT_NE(expect_response<SnapshotMessage>(server.handle(
                util::BytesView(encode(SyncRequest{1, 3})))),
            nullptr);
  // Servable from the tail: delta.
  EXPECT_NE(expect_response<DeltaMessage>(server.handle(
                util::BytesView(encode(SyncRequest{1, 6})))),
            nullptr);

  // A gap larger than max_delta_updates is shipped as a snapshot.
  SyncServer::Config tight;
  tight.max_delta_updates = 1;
  SyncServer small(log, tight);
  EXPECT_NE(expect_response<SnapshotMessage>(small.handle(
                util::BytesView(encode(SyncRequest{2, 6})))),
            nullptr);
}

TEST(SyncServer, DropsNonRequestDatagrams) {
  DescriptorLog log;
  SyncServer server(log);
  EXPECT_FALSE(server.handle(util::BytesView(
                                 encode(HeartbeatMessage{3})))
                   .has_value());
  const util::Bytes garbage = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_FALSE(server.handle(util::BytesView(garbage)).has_value());
}

// --- SyncClient over a loopback transport --------------------------

/// Loopback harness: the client's requests go straight to a SyncServer
/// unless the link is wedged; responses can be captured for replay.
struct Loopback {
  util::ManualClock clock{1000 * kSecond};
  DescriptorLog log;
  SyncServer server{log};
  TablePublisher tables;
  bool link_up = true;
  std::vector<util::Bytes> responses;  // every response delivered
  std::unique_ptr<SyncClient> client;

  explicit Loopback(SyncClient::Config config = {}) {
    client = std::make_unique<SyncClient>(
        clock, tables, config, [this](util::Bytes request) {
          if (!link_up) return;
          if (auto reply = server.handle(util::BytesView(request))) {
            responses.push_back(*reply);
            client->on_datagram(util::BytesView(responses.back()));
          }
        });
  }

  /// Advance in steps, ticking like a driver loop would.
  void run_for(util::Timestamp duration,
               util::Timestamp step = 50 * kMillisecond) {
    const util::Timestamp until = clock.now() + duration;
    while (clock.now() < until) {
      clock.advance(step);
      client->tick();
    }
  }
};

TEST(SyncClient, BootstrapsViaSnapshotThenDeltas) {
  Loopback lo;
  lo.log.append_add(make_descriptor(1));
  lo.client->start();
  EXPECT_EQ(lo.client->applied_version(), 1u);
  ASSERT_NE(lo.tables.peek(), nullptr);
  EXPECT_EQ(lo.tables.peek()->version(), 1u);

  // A revocation flows through as a delta on the next poll.
  lo.log.append_revoke(1);
  lo.run_for(kSecond);
  EXPECT_EQ(lo.client->applied_version(), 2u);
  ASSERT_NE(lo.tables.peek()->find(1), nullptr);
  EXPECT_TRUE(lo.tables.peek()->find(1)->revoked);

  // Steady state: heartbeats keep the version pinned and fresh.
  const uint64_t epoch_before = lo.tables.epoch();
  lo.run_for(kSecond);
  EXPECT_EQ(lo.client->applied_version(), 2u);
  EXPECT_EQ(lo.tables.epoch(), epoch_before);  // no spurious republish
  EXPECT_FALSE(lo.client->stale());
  EXPECT_EQ(lo.client->retries(), 0u);
}

TEST(SyncClient, RetriesWithBackoffAndGoesStalePastGrace) {
  SyncClient::Config config;
  config.stale_grace = 2 * kSecond;
  Loopback lo(config);
  lo.log.append_add(make_descriptor(1));
  lo.client->start();
  EXPECT_EQ(lo.client->applied_version(), 1u);

  // Wedge the link: requests vanish, timeouts accumulate as retries,
  // and the wakeup horizon stretches (exponential backoff).
  lo.link_up = false;
  lo.log.append_revoke(1);
  lo.run_for(500 * kMillisecond);
  EXPECT_GE(lo.client->retries(), 1u);
  EXPECT_FALSE(lo.client->stale());  // within grace

  const uint64_t retries_after_1s = lo.client->retries();
  lo.run_for(4 * kSecond);
  EXPECT_TRUE(lo.client->stale());
  // Backoff: nowhere near one retry per timeout interval.
  EXPECT_LT(lo.client->retries() - retries_after_1s, 10u);
  // Stale-while-revalidate: the last good table still enforces.
  ASSERT_NE(lo.tables.peek(), nullptr);
  EXPECT_EQ(lo.tables.peek()->version(), 1u);
  EXPECT_FALSE(lo.tables.peek()->find(1)->revoked);

  // Recovery: link back, next poll catches up, staleness clears. The
  // window must outlast a full capped backoff (5 s, +20% jitter).
  lo.link_up = true;
  lo.run_for(12 * kSecond);
  EXPECT_EQ(lo.client->applied_version(), 2u);
  EXPECT_FALSE(lo.client->stale());
  EXPECT_TRUE(lo.tables.peek()->find(1)->revoked);
}

TEST(SyncClient, ReplayedOldSnapshotDoesNotRollBack) {
  Loopback lo;
  lo.log.append_add(make_descriptor(1));
  lo.client->start();  // snapshot at version 1 (captured)
  ASSERT_FALSE(lo.responses.empty());
  const util::Bytes old_snapshot = lo.responses.front();

  lo.log.append_revoke(1);
  lo.run_for(kSecond);
  EXPECT_EQ(lo.client->applied_version(), 2u);

  // A duplicated/reordered datagram from before the revoke arrives
  // late: it must not resurrect the revoked descriptor.
  lo.client->on_datagram(util::BytesView(old_snapshot));
  EXPECT_EQ(lo.client->applied_version(), 2u);
  EXPECT_TRUE(lo.tables.peek()->find(1)->revoked);
}

// --- Graceful degradation (PR 5): breaker, backoff decay, restore --

TEST(SyncClient, BreakerOpensThenProbesAndClosesAfterSuccessStreak) {
  SyncClient::Config config;
  config.breaker_failure_threshold = 3;
  config.breaker_success_threshold = 2;
  Loopback lo(config);
  lo.log.append_add(make_descriptor(1));
  lo.client->start();
  EXPECT_EQ(lo.client->breaker_state(), BreakerState::kClosed);

  // Dead server: failures accumulate past the threshold and the
  // breaker trips. From then on it is either open (waiting out the
  // backoff) or half-open (one probe in flight) — never closed.
  lo.link_up = false;
  lo.log.append_revoke(1);
  lo.run_for(10 * kSecond);
  EXPECT_GE(lo.client->consecutive_failures(), 3u);
  EXPECT_NE(lo.client->breaker_state(), BreakerState::kClosed);
  // Stale-while-revalidate: the pre-outage table still enforces.
  ASSERT_NE(lo.tables.peek(), nullptr);
  EXPECT_EQ(lo.tables.peek()->version(), 1u);

  // Recovery: probes start succeeding; after the success streak the
  // breaker closes, the slate wipes clean, and the client catches up.
  // The window must outlast two capped backoffs (5 s each, +20%
  // jitter) — one per required success.
  lo.link_up = true;
  lo.run_for(30 * kSecond);
  EXPECT_EQ(lo.client->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(lo.client->consecutive_failures(), 0u);
  EXPECT_EQ(lo.client->applied_version(), 2u);
  EXPECT_FALSE(lo.client->stale());
}

TEST(SyncClient, FlappingLinkSingleSuccessDecaysBackoffNotResets) {
  // The regression (PR 5 satellite): one response slipping through a
  // flapping link used to reset backoff to the minimum, so the client
  // resumed hammering a server that was still down. Once the breaker
  // is engaged, a one-off success must only decay the failure level.
  SyncClient::Config config;
  config.breaker_failure_threshold = 2;
  Loopback lo(config);
  lo.log.append_add(make_descriptor(1));
  lo.client->start();

  lo.link_up = false;
  lo.run_for(8 * kSecond);
  ASSERT_GE(lo.client->consecutive_failures(), 2u);
  ASSERT_NE(lo.client->breaker_state(), BreakerState::kClosed);

  // Flap: the link is up exactly long enough for one exchange. A
  // request already in flight when the link recovers can still time
  // out first, so sample the failure level right before the tick that
  // finally gets a response (a success never shares a tick with a
  // failure: on_failure pushes next_poll into the future).
  const size_t responses_before = lo.responses.size();
  uint32_t failures_before_success = 0;
  lo.link_up = true;
  while (lo.responses.size() == responses_before) {
    failures_before_success = lo.client->consecutive_failures();
    lo.clock.advance(50 * kMillisecond);
    lo.client->tick();
  }
  lo.link_up = false;
  ASSERT_GE(failures_before_success, 2u);
  EXPECT_EQ(lo.client->consecutive_failures(), failures_before_success - 1);

  // Still backed off near the cap: over the next 5 s the client sends
  // a couple of probes, not one per 100 ms poll interval (a reset
  // would produce dozens).
  const uint64_t retries_before = lo.client->retries();
  lo.run_for(5 * kSecond);
  EXPECT_LT(lo.client->retries() - retries_before, 8u);
}

TEST(SyncClient, RestoresCheckpointWithinBudgetAndRejectsStale) {
  Loopback source;
  source.log.append_add(make_descriptor(1));
  source.log.append_add(make_descriptor(2));
  source.log.append_revoke(2);
  source.client->start();
  EXPECT_EQ(source.client->applied_version(), 3u);
  const SavedTable saved = source.client->export_table();
  EXPECT_EQ(saved.version, 3u);
  EXPECT_EQ(saved.live.size(), 1u);  // live() excludes the revoked one
  EXPECT_EQ(saved.revoked.size(), 1u);

  // Cold start within budget: the checkpoint publishes immediately, so
  // workers enforce last-known-good state before the first sync.
  {
    Loopback fresh;
    fresh.clock.set(saved.saved_at + 10 * kSecond);
    fresh.link_up = false;
    EXPECT_TRUE(fresh.client->restore(saved));
    ASSERT_NE(fresh.tables.peek(), nullptr);
    EXPECT_EQ(fresh.tables.peek()->version(), 3u);
    ASSERT_NE(fresh.tables.peek()->find(2), nullptr);
    EXPECT_TRUE(fresh.tables.peek()->find(2)->revoked);
    EXPECT_TRUE(fresh.client->running_on_restored_table());

    // The first live exchange clears the restored-table degradation.
    fresh.link_up = true;
    fresh.log.append_add(make_descriptor(1));
    fresh.log.append_add(make_descriptor(2));
    fresh.log.append_revoke(2);
    fresh.log.append_add(make_descriptor(3));
    fresh.client->start();
    EXPECT_FALSE(fresh.client->running_on_restored_table());
    EXPECT_EQ(fresh.client->applied_version(), 4u);
  }

  // A checkpoint past restore_budget is refused outright — enforcing
  // arbitrarily old revocation state is worse than none.
  {
    Loopback fresh;
    fresh.clock.set(saved.saved_at + 31 * kSecond);  // budget is 30 s
    EXPECT_FALSE(fresh.client->restore(saved));
    EXPECT_EQ(fresh.tables.peek(), nullptr);
    EXPECT_FALSE(fresh.client->running_on_restored_table());
  }
}

// --- Sync over lossy simulated links -------------------------------

TEST(ControlPlaneSim, ConvergesOverLossyReorderingLinks) {
  sim::EventLoop loop;
  DescriptorLog log;
  SyncServer server(log);
  TablePublisher tables;
  SyncClient* client_ptr = nullptr;

  sim::Link::Config impaired;
  impaired.rate_bps = 1e6;
  impaired.prop_delay = 10 * kMillisecond;
  impaired.loss_rate = 0.25;
  impaired.delay_jitter = 15 * kMillisecond;  // enough to reorder

  // Response direction (declared first: the request sink captures it).
  impaired.impairment_seed = 0xd0;
  sim::Link to_client(loop, impaired, [&](net::Packet p) {
    client_ptr->on_datagram(util::BytesView(p.payload));
  });
  impaired.impairment_seed = 0xd1;
  sim::Link to_server(loop, impaired, [&](net::Packet p) {
    if (auto reply = server.handle(util::BytesView(p.payload))) {
      net::Packet r;
      r.payload = std::move(*reply);
      to_client.send(std::move(r));
    }
  });

  SyncClient::Config config;
  config.poll_interval = 50 * kMillisecond;
  config.response_timeout = 100 * kMillisecond;
  config.backoff_base = 100 * kMillisecond;
  SyncClient client(loop.clock(), tables, config,
                    [&](util::Bytes request) {
                      net::Packet p;
                      p.payload = std::move(request);
                      to_server.send(std::move(p));
                    });
  client_ptr = &client;

  for (cookies::CookieId id = 1; id <= 5; ++id) {
    log.append_add(make_descriptor(id));
  }
  client.start();
  // Tick pump riding the event loop.
  std::function<void()> pump = [&] {
    client.tick();
    loop.after(25 * kMillisecond, pump);
  };
  pump();
  loop.run_until(loop.now() + 10 * kSecond);
  ASSERT_NE(tables.peek(), nullptr);
  EXPECT_EQ(tables.peek()->version(), 5u);

  // Mid-life churn: grants and revokes while the channel stays lossy.
  log.append_revoke(2);
  log.append_add(make_descriptor(6));
  log.append_remove(1);
  loop.run_until(loop.now() + 10 * kSecond);

  EXPECT_EQ(client.applied_version(), log.version());
  const auto* table = tables.peek();
  EXPECT_EQ(table->version(), 8u);
  EXPECT_EQ(table->find(1), nullptr);        // removed
  EXPECT_TRUE(table->find(2)->revoked);      // revoked
  EXPECT_FALSE(table->find(6)->revoked);     // granted late
  EXPECT_FALSE(client.stale());
  EXPECT_GT(to_server.dropped() + to_client.dropped(), 0u)
      << "loss impairment never fired; the test is vacuous";
}

// --- End-to-end: revocation reaches a running plane ----------------

net::Packet flow_packet(uint32_t flow_id) {
  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(0x0a000000u | flow_id);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 1);
  p.tuple.src_port = static_cast<uint16_t>(1024 + (flow_id & 0xfff));
  p.tuple.dst_port = 443;
  p.tuple.proto = net::L4Proto::kUdp;
  p.wire_size = 512;
  return p;
}

/// These tests spread one descriptor's cookies over every worker, so
/// each worker's verifier must see the swap or the revocation itself:
/// flow-hash steering, which ignores the cookie.
runtime::Dataplane::Config flow_hash_config(size_t workers) {
  runtime::Dataplane::Config config;
  config.policy = dataplane::DispatchPolicy::kFlowHash;
  config.pool.workers = workers;
  return config;
}

/// Closed loop onto `worker`: under flow hash the worker is picked by
/// picking the flow, the first flow id from `next_flow` on that
/// route() sends there (advancing `next_flow`, so every packet opens a
/// fresh flow). Waits for a slot, builds the packet in place, then
/// blocks on the ring.
void submit_spin(runtime::Dataplane& plane, size_t worker,
                 uint32_t& next_flow, const cookies::Cookie& cookie) {
  net::Packet packet = flow_packet(next_flow++);
  while (plane.route(packet) != worker) packet = flow_packet(next_flow++);
  cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
  runtime::PacketHandle handle;
  while (!(handle = plane.make_packet())) {
    std::this_thread::yield();
  }
  *handle = std::move(packet);
  plane.ingest_blocking(std::move(handle));
}

TEST(ControlPlaneRuntime, RevocationReachesEveryWorkerThroughSync) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  const runtime::Dataplane::Config config = flow_hash_config(2);
  runtime::Dataplane plane(clock, registry, config);

  DescriptorLog log;
  SyncServer server(log);
  TablePublisher tables;
  SyncClient* client_ptr = nullptr;
  util::ManualClock control_clock(clock.now());
  SyncClient client(control_clock, tables, {},
                    [&](util::Bytes request) {
                      if (auto r = server.handle(util::BytesView(request))) {
                        client_ptr->on_datagram(util::BytesView(*r));
                      }
                    });
  client_ptr = &client;
  plane.bind_table_publisher(tables);

  log.append_add(make_descriptor(1));
  client.start();
  plane.start();

  util::ManualClock mint_clock(clock.now());
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  uint32_t next_flow = 0;
  for (uint32_t i = 0; i < 8; ++i) {
    submit_spin(plane, i % config.pool.workers, next_flow, gen.generate());
    mint_clock.advance(kMillisecond);
  }
  plane.drain();
  EXPECT_EQ(plane.total_verified(), 8u);

  // The revocation travels server -> log -> sync -> table swap; no
  // direct plane/verifier call anywhere.
  log.append_revoke(1);
  control_clock.advance(kSecond);
  client.tick();
  ASSERT_TRUE(tables.peek()->find(1)->revoked);

  for (uint32_t i = 100; i < 108; ++i) {
    submit_spin(plane, i % config.pool.workers, next_flow, gen.generate());
    mint_clock.advance(kMillisecond);
  }
  plane.drain();
  plane.stop();
  EXPECT_EQ(plane.total_verified(), 8u);  // nothing after the revoke
  uint64_t revoked_seen = 0;
  for (size_t w = 0; w < config.pool.workers; ++w) {
    const uint64_t revoked = plane.verifier(w).stats().count(
        cookies::VerifyStatus::kDescriptorRevoked);
    EXPECT_GT(revoked, 0u) << "revocation missed worker " << w;
    revoked_seen += revoked;
  }
  EXPECT_EQ(revoked_seen, 8u);
  EXPECT_EQ(tables.epoch(), 2u);
}

/// Verify throughput continues while tables swap underneath the
/// workers — the TSan job runs this to prove the hazard/epoch protocol
/// race-free: workers acquire() per burst while the control thread
/// publishes and reclaims as fast as it can.
TEST(ControlPlaneRuntime, VerifyDuringSwapIsRaceFree) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config = flow_hash_config(2);
  config.pool.ring_capacity = 256;
  runtime::Dataplane plane(clock, registry, config);

  TablePublisher tables;
  plane.bind_table_publisher(tables);

  // Seed both alternating tables with the descriptor being verified so
  // every burst resolves it no matter which epoch it pins.
  auto build = [](uint64_t version) {
    TableMirror mirror;
    std::vector<cookies::CookieDescriptor> live = {make_descriptor(1),
                                                   make_descriptor(2)};
    mirror.reset(version, std::move(live), {});
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

  util::ManualClock mint_clock(clock.now());
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  constexpr uint32_t kPackets = 4000;
  uint32_t next_flow = 0;
  for (uint32_t i = 0; i < kPackets; ++i) {
    submit_spin(plane, i % config.pool.workers, next_flow, gen.generate());
    mint_clock.advance(kMillisecond);
  }
  plane.drain();
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  plane.stop();

  // Workers parked at stop; everything retired must now be free.
  tables.try_reclaim();
  EXPECT_EQ(tables.retired_count(), 0u);
  EXPECT_EQ(plane.total_verified(), kPackets);
  EXPECT_GT(tables.epoch(), 2u) << "swapper never actually swapped";
}

TEST(ControlPlaneRuntime, VerifyDuringSwapAt100kDescriptors) {
  // ISP-scale variant of the swap race (TSan CI target): tables carry
  // 100k compact records, so a swap retires megabytes of store while
  // workers' hot tiers keep verifying against epoch-stamped midstates.
  // Exercises the DescriptorStore copy in build(), epoch revalidation
  // under churn, and reclamation of large retired tables.
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config = flow_hash_config(2);
  config.pool.ring_capacity = 256;
  runtime::Dataplane plane(clock, registry, config);

  TablePublisher tables;
  plane.bind_table_publisher(tables);

  constexpr cookies::CookieId kTableSize = 100'000;
  TableMirror mirror;
  {
    std::vector<cookies::CookieDescriptor> live;
    live.reserve(kTableSize);
    for (cookies::CookieId id = 1; id <= kTableSize; ++id) {
      live.push_back(make_descriptor(id));
    }
    mirror.reset(1, std::move(live), {});
  }
  tables.publish(mirror.build());
  plane.start();

  // Swapper: keep publishing fresh 100k-record tables (each build()
  // copies the store) while the workers verify. The overlap is
  // certain, not likely: at least two publishes before stop is
  // honoured, and the producer starts only after the first.
  std::atomic<bool> stop_swapping{false};
  std::atomic<int> publishes{0};
  std::thread swapper([&] {
    uint64_t version = 1;
    while (publishes.load(std::memory_order_relaxed) < 2 ||
           !stop_swapping.load(std::memory_order_acquire)) {
      Update update;
      update.version = ++version;
      update.op = UpdateOp::kAdd;
      update.id = kTableSize + version;
      update.descriptor = make_descriptor(update.id);
      ASSERT_TRUE(mirror.apply(update));
      tables.publish(mirror.build());
      tables.try_reclaim();
      publishes.fetch_add(1, std::memory_order_release);
      // Each build copies a 100k-record store; pace the swaps so the
      // test exercises dozens of epochs, not an allocation benchmark.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (publishes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  util::ManualClock mint_clock(clock.now());
  // A handful of hot descriptors spread across the id space.
  std::vector<cookies::CookieGenerator> gens;
  for (cookies::CookieId id = 1; id <= 8; ++id) {
    gens.emplace_back(make_descriptor(id * (kTableSize / 8)), mint_clock,
                      id);
  }
  constexpr uint32_t kPackets = 2000;
  uint32_t next_flow = 0;
  for (uint32_t i = 0; i < kPackets; ++i) {
    submit_spin(plane, i % config.pool.workers, next_flow,
                gens[i % gens.size()].generate());
    mint_clock.advance(kMillisecond);
  }
  plane.drain();
  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  plane.stop();

  tables.try_reclaim();
  EXPECT_EQ(tables.retired_count(), 0u);
  EXPECT_EQ(plane.total_verified(), kPackets);
  EXPECT_GT(tables.epoch(), 1u) << "swapper never actually swapped";
}

// --- LocalSubscriber ------------------------------------------------

TEST(LocalSubscriber, ReplaysHistoryAndFollowsUpdates) {
  util::ManualClock clock(1000 * kSecond);
  DescriptorLog log;
  log.append_add(make_descriptor(1));
  log.append_add(make_descriptor(2));
  log.append_revoke(2);

  cookies::CookieVerifier verifier(clock);
  LocalSubscriber subscriber(log, verifier);
  // Pre-subscription history replayed...
  EXPECT_TRUE(verifier.knows(1));
  EXPECT_EQ(verifier.find(2), nullptr);  // revoked
  EXPECT_TRUE(verifier.knows(2));       // ...including the tombstone
  // ...and live updates follow.
  log.append_add(make_descriptor(3));
  EXPECT_TRUE(verifier.knows(3));
  log.append_remove(3);
  EXPECT_FALSE(verifier.knows(3));
  // A revoke for an id the verifier never saw still lands (stub).
  log.append_revoke(9);
  EXPECT_TRUE(verifier.knows(9));
  EXPECT_EQ(verifier.find(9), nullptr);
}

}  // namespace
}  // namespace nnn::controlplane
