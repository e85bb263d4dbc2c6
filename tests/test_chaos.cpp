// Chaos harness (PR 5 tentpole): randomized, seeded multi-fault
// schedules over the sync channel, the issuing server, and the worker
// pool, asserting the paper's failure-semantics contract under every
// schedule:
//
//   1. fail-open — no cookie-bearing packet is ever dropped by the
//      middlebox machinery: every packet offered to the dataplane is
//      forwarded (verified, or counted as a shed and forwarded
//      unverified), and the published descriptor table never vanishes
//      mid-outage;
//   2. replay protection never weakens — a cookie is accepted (kOk) at
//      most once, no matter what faults land, including clock skew
//      beyond the network coherency time;
//   3. recovery converges — once the schedule goes quiet, the client
//      catches back up to the log head within the stale-while-
//      revalidate budget: breaker closed, stale flag clear, published
//      table at the server's version.
//
// Every schedule comes from FaultPlan::random(seed); a red seed
// reproduces from the test name alone, and SCOPED_TRACE prints the
// plan so the failure is diagnosable without re-running it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/messages.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "controlplane/table_mirror.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/packet.h"
#include "net/wire.h"
#include "netio/event_loop.h"
#include "netio/sync_endpoint.h"
#include "netio/sync_transport.h"
#include "netio/transport.h"
#include "quic/workload.h"
#include "runtime/dataplane.h"
#include "server/cookie_server.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace nnn {
namespace {

using util::kMillisecond;
using util::kSecond;
using util::Timestamp;

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(0x40 + (id & 0x3f)));
  d.service_data = "Boost";
  return d;
}

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

std::string trace_label(uint64_t seed, const fault::FaultPlan& plan) {
  return "seed " + std::to_string(seed) + ": " + plan.summary();
}

// --- Control plane under chaos -------------------------------------
//
// SyncClient/SyncServer over impaired sim links, with the injector
// hooked into both links (partitions, loss spikes) and the server
// (sync outages). A CookieServer issues grants into the same log while
// the faults land, and a standalone verifier on a SkewedClock probes
// the use-once check throughout — including while the clock reads
// beyond the NCT.

class ChaosSync : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSync, ConvergesFailOpenWithReplaySafety) {
  const uint64_t seed = GetParam();
  const fault::FaultPlan plan = fault::FaultPlan::random(seed);
  SCOPED_TRACE(trace_label(seed, plan));
  fault::Injector injector;
  injector.arm(plan, seed);

  sim::EventLoop loop;
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  server.set_fault_injector(&injector, &loop.clock());
  controlplane::TablePublisher tables;
  controlplane::SyncClient* client_ptr = nullptr;

  sim::Link::Config wire;
  wire.rate_bps = 1e6;
  wire.prop_delay = 5 * kMillisecond;
  wire.loss_rate = 0.02;  // ambient loss; the plan layers spikes on top
  wire.delay_jitter = 2 * kMillisecond;
  wire.impairment_seed = seed * 2 + 1;
  sim::Link to_client(loop, wire, [&](net::Packet p) {
    client_ptr->on_datagram(util::BytesView(p.payload));
  });
  to_client.set_fault_injector(&injector, 1);
  wire.impairment_seed = seed * 2 + 2;
  sim::Link to_server(loop, wire, [&](net::Packet p) {
    if (auto reply = server.handle(util::BytesView(p.payload))) {
      net::Packet r;
      r.payload = std::move(*reply);
      to_client.send(std::move(r));
    }
  });
  to_server.set_fault_injector(&injector, 0);

  controlplane::SyncClient::Config cfg;
  cfg.client_id = seed;
  cfg.poll_interval = 50 * kMillisecond;
  cfg.response_timeout = 100 * kMillisecond;
  cfg.backoff_base = 100 * kMillisecond;
  cfg.backoff_max = kSecond;
  cfg.stale_grace = 2 * kSecond;
  cfg.breaker_failure_threshold = 3;
  cfg.breaker_success_threshold = 2;
  controlplane::SyncClient client(loop.clock(), tables, cfg,
                                  [&](util::Bytes request) {
                                    net::Packet p;
                                    p.payload = std::move(request);
                                    to_server.send(std::move(p));
                                  });
  client_ptr = &client;

  // The issuing side shares the log and the injector: acquires during
  // an outage must fail *unavailable* (never corrupt state), and the
  // grants that do land must reach the client like any other update.
  server::CookieServer cookie_server(loop.clock(), seed, &log);
  cookie_server.set_fault_injector(&injector);
  server::ServiceOffer offer;
  offer.name = "Boost";
  cookie_server.add_service(offer);

  // Descriptor churn timed to land inside the 10 s fault horizon.
  for (cookies::CookieId id = 1; id <= 4; ++id) {
    log.append_add(make_descriptor(id));
  }
  loop.at(1 * kSecond, [&] { log.append_add(make_descriptor(5)); });
  loop.at(2500 * kMillisecond, [&] { log.append_revoke(2); });
  loop.at(4 * kSecond, [&] { log.append_add(make_descriptor(6)); });
  loop.at(6 * kSecond, [&] { log.append_remove(1); });
  loop.at(8 * kSecond, [&] { log.append_revoke(3); });

  client.start();
  std::function<void()> pump = [&] {
    client.tick();
    loop.after(25 * kMillisecond, pump);
  };
  pump();

  // Invariant 1 watchdog: once a table has been published, it must
  // never revert to "no table" — stale-while-revalidate keeps the last
  // good table enforcing through the worst outage.
  bool published_once = false;
  bool published_gap = false;
  std::function<void()> watchdog = [&] {
    if (tables.peek() != nullptr) {
      published_once = true;
    } else if (published_once) {
      published_gap = true;
    }
    loop.after(100 * kMillisecond, watchdog);
  };
  watchdog();

  // Acquire pump: inside the fault horizon only, so the convergence
  // assertions below race nothing.
  const Timestamp horizon = 10 * kSecond;
  uint64_t acquires_ok = 0;
  uint64_t acquires_unavailable = 0;
  bool acquire_violation = false;
  std::function<void()> buyer = [&] {
    const auto result = cookie_server.acquire("Boost", "alice");
    if (result.ok()) {
      ++acquires_ok;
    } else if (result.error == server::AcquireError::kUnavailable) {
      ++acquires_unavailable;
    } else {
      acquire_violation = true;  // open service: nothing else is legal
    }
    if (loop.now() + 900 * kMillisecond < horizon) {
      loop.after(900 * kMillisecond, buyer);
    }
  };
  loop.after(300 * kMillisecond, buyer);

  // Invariant 2 prober: mint a cookie with the true clock, verify it
  // twice on a clock the plan may skew past the NCT. The second verify
  // must never be accepted; when the first is accepted the second must
  // be flagged as the replay it is.
  fault::SkewedClock skewed(loop.clock(), injector);
  cookies::CookieVerifier verifier(skewed);
  verifier.add_descriptor(make_descriptor(99));
  cookies::CookieGenerator mint(make_descriptor(99), loop.clock(), seed);
  uint64_t replay_violations = 0;
  std::function<void()> prober = [&] {
    const cookies::Cookie cookie = mint.generate();
    const auto first = verifier.verify(cookie);
    const auto second = verifier.verify(cookie);
    if (second.ok()) ++replay_violations;
    if (first.ok() && second.status != cookies::VerifyStatus::kReplayed) {
      ++replay_violations;
    }
    loop.after(250 * kMillisecond, prober);
  };
  prober();

  // Run the schedule out, then give recovery one stale-while-
  // revalidate budget's worth of quiet channel.
  const Timestamp quiet = std::max(plan.quiet_after(), horizon);
  const Timestamp deadline = quiet + 5 * kSecond;
  loop.run_until(deadline);

  EXPECT_FALSE(acquire_violation)
      << "acquire failed with something other than kUnavailable";
  EXPECT_EQ(replay_violations, 0u);
  EXPECT_GT(verifier.stats().count(cookies::VerifyStatus::kReplayed), 0u)
      << "the replay prober never exercised an accepted cookie";
  EXPECT_FALSE(published_gap)
      << "published table vanished mid-outage (fail-closed)";

  // Invariant 3: converged.
  ASSERT_NE(tables.peek(), nullptr);
  EXPECT_EQ(client.applied_version(), log.version());
  EXPECT_EQ(tables.peek()->version(), log.version());
  EXPECT_FALSE(client.stale());
  EXPECT_EQ(client.breaker_state(), controlplane::BreakerState::kClosed);
  ASSERT_NE(tables.peek()->find(2), nullptr);
  EXPECT_TRUE(tables.peek()->find(2)->revoked);
  EXPECT_EQ(tables.peek()->find(1), nullptr);  // removed at 6 s

  // The issuing path recovered too, and its new grant syncs through.
  const auto grant = cookie_server.acquire("Boost", "alice");
  EXPECT_TRUE(grant.ok()) << "acquire still unavailable after quiet";
  loop.run_until(deadline + 2 * kSecond);
  EXPECT_EQ(client.applied_version(), log.version());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSync,
                         ::testing::Range<uint64_t>(1, 22));

// --- Worker pool under chaos ---------------------------------------
//
// Real threads on the system clock: a producer pushes every cookie
// TWICE through a descriptor-affinity dataplane while the plan
// injects queue-pressure bursts, worker pauses, and clock skew (the
// pool runs on a SkewedClock). The books must balance exactly —
// nothing silently dropped — and no cookie is ever accepted twice.

class ChaosPool : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosPool, ShedLedgerAndUseOnceHoldUnderFaults) {
  const uint64_t seed = GetParam();
  util::SystemClock wall;
  fault::Injector injector;
  fault::SkewedClock clock(wall, injector);

  // Short real-time horizon: the producer below spans tens of
  // milliseconds, so durations are scaled to overlap it.
  fault::FaultPlan::Spec spec;
  spec.horizon = 30 * kMillisecond;
  spec.min_duration = 5 * kMillisecond;
  spec.max_duration = 15 * kMillisecond;
  spec.max_magnitude = 0.5;
  const fault::FaultPlan drawn = fault::FaultPlan::random(seed, spec);
  SCOPED_TRACE(trace_label(seed, drawn));
  // random() draws starts in [0, horizon); rebase onto the wall clock.
  fault::FaultPlan plan;
  const Timestamp base = wall.now() + 2 * kMillisecond;
  for (fault::FaultEvent e : drawn.events()) {
    e.start += base;
    plan.add(e);
  }
  injector.arm(plan, seed);

  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config;  // descriptor affinity
  config.pool.workers = 2;
  config.pool.ring_capacity = 128;  // small on purpose: real ring-full sheds
  runtime::Dataplane plane(clock, registry, config);
  plane.set_fault_injector(&injector);
  plane.add_descriptor(make_descriptor(1));
  plane.add_descriptor(make_descriptor(2));
  plane.start();

  constexpr uint32_t kUnique = 1500;
  util::ManualClock mint_clock(wall.now());  // never advanced: one writer, no race
  cookies::CookieGenerator gen1(make_descriptor(1), mint_clock, seed);
  cookies::CookieGenerator gen2(make_descriptor(2), mint_clock, seed + 1);
  // The producer's own books: ingest() says whether each offered
  // packet was routed to a worker or shed.
  constexpr uint64_t kOffered = 2ull * kUnique;
  uint64_t routed = 0;
  uint64_t refused = 0;
  std::thread producer([&] {
    for (uint32_t i = 0; i < kUnique; ++i) {
      cookies::CookieGenerator& gen = (i & 1) ? gen2 : gen1;
      const cookies::Cookie cookie = gen.generate();
      net::Packet p = flow_packet(i);
      cookies::attach(p, cookie, cookies::Transport::kUdpHeader);
      // Twice, same cookie: the §4.2 use-once probe.
      for (int copy = 0; copy < 2; ++copy) {
        runtime::PacketHandle h = plane.make_packet();
        if (h) *h = p;
        if (plane.ingest(std::move(h))) {
          ++routed;
        } else {
          ++refused;
        }
      }
      // Stretch the producer across the fault window.
      if ((i & 7) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  producer.join();
  // Let the schedule finish (a pause still active would stall drain
  // only as long as its own duration; waiting keeps the timing tight).
  while (injector.any_active(wall.now())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  plane.drain();
  plane.stop();

  // Invariant 1: exact fail-open accounting. Every offered packet was
  // forwarded — processed by a worker or counted as a shed — and the
  // pool's shed ledger reconciles against the producer's books.
  const auto totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed, routed);
  EXPECT_EQ(totals.shed, refused);
  EXPECT_EQ(totals.processed + totals.shed, kOffered)
      << "a cookie-bearing packet was dropped (fail-closed)";

  // Invariant 2: at most one accept per unique cookie. Affinity pins
  // both copies of a cookie to one worker, so its replay cache is
  // authoritative; skew or shedding may cost accepts, never add them.
  uint64_t accepted = 0;
  uint64_t replayed = 0;
  for (size_t w = 0; w < plane.worker_count(); ++w) {
    accepted += plane.verifier(w).stats().count(cookies::VerifyStatus::kOk);
    replayed +=
        plane.verifier(w).stats().count(cookies::VerifyStatus::kReplayed);
  }
  EXPECT_LE(accepted, kUnique);
  EXPECT_LE(replayed, accepted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPool,
                         ::testing::Range<uint64_t>(1, 11));

// --- Cold restart under chaos --------------------------------------
//
// A middlebox syncs cleanly, checkpoints, "restarts", and restores the
// checkpoint while the channel to the server is under a fresh fault
// schedule: the restored table must bridge the gap immediately (fail-
// open from the first instant), the resync must converge once the
// schedule quiets, and a checkpoint past the staleness budget must be
// refused.

class ChaosRestart : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosRestart, RestoredTableBridgesFaultyResync) {
  const uint64_t seed = GetParam();
  sim::EventLoop loop;
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  fault::Injector injector;

  // Phase 1: clean synchronous loopback to version 4, then checkpoint.
  controlplane::SavedTable saved;
  {
    controlplane::TablePublisher tables1;
    controlplane::SyncClient* c1 = nullptr;
    controlplane::SyncClient client1(loop.clock(), tables1, {},
                                     [&](util::Bytes request) {
                                       if (auto reply = server.handle(
                                               util::BytesView(request))) {
                                         c1->on_datagram(util::BytesView(*reply));
                                       }
                                     });
    c1 = &client1;
    log.append_add(make_descriptor(1));
    log.append_add(make_descriptor(2));
    log.append_add(make_descriptor(3));
    log.append_revoke(2);
    client1.start();
    ASSERT_EQ(client1.applied_version(), 4u);
    loop.run_until(kSecond);
    saved = client1.export_table();
  }
  ASSERT_EQ(saved.version, 4u);

  // Phase 2: restart behind a faulted channel.
  fault::FaultPlan::Spec spec;
  spec.horizon = 5 * kSecond;
  const fault::FaultPlan drawn = fault::FaultPlan::random(seed, spec);
  SCOPED_TRACE(trace_label(seed, drawn));
  fault::FaultPlan plan;
  for (fault::FaultEvent e : drawn.events()) {
    e.start += kSecond;  // schedule starts at the restart instant
    plan.add(e);
  }
  injector.arm(plan, seed);
  server.set_fault_injector(&injector, &loop.clock());

  controlplane::TablePublisher tables2;
  controlplane::SyncClient* c2 = nullptr;
  sim::Link::Config wire;
  wire.rate_bps = 1e6;
  wire.prop_delay = 5 * kMillisecond;
  wire.loss_rate = 0.02;
  wire.delay_jitter = 2 * kMillisecond;
  wire.impairment_seed = seed * 2 + 1;
  sim::Link to_client(loop, wire, [&](net::Packet p) {
    c2->on_datagram(util::BytesView(p.payload));
  });
  to_client.set_fault_injector(&injector, 1);
  wire.impairment_seed = seed * 2 + 2;
  sim::Link to_server(loop, wire, [&](net::Packet p) {
    if (auto reply = server.handle(util::BytesView(p.payload))) {
      net::Packet r;
      r.payload = std::move(*reply);
      to_client.send(std::move(r));
    }
  });
  to_server.set_fault_injector(&injector, 0);

  controlplane::SyncClient::Config cfg;
  cfg.client_id = seed + 1000;
  cfg.poll_interval = 50 * kMillisecond;
  cfg.response_timeout = 100 * kMillisecond;
  cfg.backoff_base = 100 * kMillisecond;
  cfg.backoff_max = kSecond;
  cfg.stale_grace = 2 * kSecond;
  cfg.breaker_failure_threshold = 3;
  cfg.breaker_success_threshold = 2;
  controlplane::SyncClient client2(loop.clock(), tables2, cfg,
                                   [&](util::Bytes request) {
                                     net::Packet p;
                                     p.payload = std::move(request);
                                     to_server.send(std::move(p));
                                   });
  c2 = &client2;

  // Restore bridges the gap before the first (possibly fault-eaten)
  // exchange: last-known-good state enforces immediately.
  ASSERT_TRUE(client2.restore(saved));
  ASSERT_NE(tables2.peek(), nullptr);
  EXPECT_EQ(tables2.peek()->version(), 4u);
  ASSERT_NE(tables2.peek()->find(2), nullptr);
  EXPECT_TRUE(tables2.peek()->find(2)->revoked);
  EXPECT_TRUE(client2.running_on_restored_table());

  // The log moves on while the restarted middlebox fights through the
  // schedule.
  loop.at(2 * kSecond, [&] { log.append_add(make_descriptor(4)); });
  loop.at(3 * kSecond, [&] { log.append_revoke(1); });

  client2.start();
  std::function<void()> pump = [&] {
    client2.tick();
    loop.after(25 * kMillisecond, pump);
  };
  pump();
  bool published_gap = false;
  std::function<void()> watchdog = [&] {
    if (tables2.peek() == nullptr) published_gap = true;
    loop.after(100 * kMillisecond, watchdog);
  };
  watchdog();

  const Timestamp quiet = std::max(plan.quiet_after(), 6 * kSecond);
  loop.run_until(quiet + 5 * kSecond);

  EXPECT_FALSE(published_gap)
      << "restored table vanished before resync (fail-closed)";
  EXPECT_EQ(client2.applied_version(), log.version());
  EXPECT_EQ(tables2.peek()->version(), log.version());
  EXPECT_FALSE(client2.running_on_restored_table());
  EXPECT_FALSE(client2.stale());
  EXPECT_EQ(client2.breaker_state(), controlplane::BreakerState::kClosed);
  ASSERT_NE(tables2.peek()->find(1), nullptr);
  EXPECT_TRUE(tables2.peek()->find(1)->revoked);  // revoked mid-outage
  ASSERT_NE(tables2.peek()->find(4), nullptr);
  EXPECT_FALSE(tables2.peek()->find(4)->revoked);  // granted mid-outage

  // Past the budget, the same checkpoint must be refused: enforcing
  // arbitrarily old revocation state is worse than none.
  loop.run_until(saved.saved_at + 31 * kSecond);  // budget is 30 s
  controlplane::TablePublisher tables3;
  controlplane::SyncClient client3(loop.clock(), tables3, {},
                                   [](util::Bytes) {});
  EXPECT_FALSE(client3.restore(saved));
  EXPECT_EQ(tables3.peek(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosRestart,
                         ::testing::Range<uint64_t>(31, 39));

// --- Network edge under chaos (PR 6) -------------------------------
//
// Real loopback TCP through src/netio/ with seeded socket-fault
// schedules drawn from the FULL kind set (connection resets, accept
// stalls, half-open peers, layered on the core six). Two contracts:
//
//   1. exact fail-open accounting at the edge — the server's books
//      balance whatever the schedule does:  accepts = closes + live
//      (every admitted connection is eventually accounted, never
//      leaked), sheds are counted rather than silently dropped, and
//      the state gauges agree with the connection table;
//   2. the control plane rides it out — a real SyncClient behind a
//      TcpSyncTransport converges to the log head once the schedule
//      quiets, with its breaker closed (resets mid-snapshot cost a
//      retry, never a stuck-open breaker).

/// Run the netio loop on a background thread for the test body.
class NetioLoopThread {
 public:
  explicit NetioLoopThread(netio::EventLoop& loop) : loop_(loop) {
    thread_ = std::thread([this] { loop_.run(); });
  }
  ~NetioLoopThread() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
  }

 private:
  netio::EventLoop& loop_;
  std::thread thread_;
};

/// One short-lived storm client: blocking connect, one SyncRequest
/// frame, best-effort read, close. Any outcome is legal under chaos —
/// the server's ledger, not the client's luck, is what the test
/// asserts on.
void storm_client(uint16_t port, uint64_t client_id,
                  long timeout_ms = 200) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{0, timeout_ms * 1000};  // bounded: chaos may eat the reply
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const util::Bytes request = controlplane::encode(
        controlplane::Message(controlplane::SyncRequest{client_id, 0}));
    (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    char buf[4096];
    (void)!::recv(fd, buf, sizeof(buf), 0);
  }
  ::close(fd);
}

class ChaosNetio : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosNetio, EdgeBooksBalanceAndClientConvergesOverTcp) {
  const uint64_t seed = GetParam();
  util::SystemClock clock;

  // A schedule over all nine core+socket kinds, rebased onto the wall
  // clock so it overlaps the storm below (the core kinds the netio
  // hooks ignore simply make the draw realistic — a box under chaos
  // sees both). Pinned to kSocketFaultKinds, not kFaultKindCount, so
  // these seeds keep their byte-identical schedules as later PRs
  // extend the enum (the audit throttle has its own suite).
  fault::FaultPlan::Spec spec;
  spec.horizon = 600 * kMillisecond;
  spec.events = 8;
  spec.min_duration = 40 * kMillisecond;
  spec.max_duration = 200 * kMillisecond;
  spec.max_magnitude = 0.7;  // most — not all — connections die
  spec.kinds = fault::kSocketFaultKinds;
  const fault::FaultPlan drawn = fault::FaultPlan::random(seed, spec);
  SCOPED_TRACE(trace_label(seed, drawn));
  fault::FaultPlan plan;
  const Timestamp base = clock.now() + 10 * kMillisecond;
  for (fault::FaultEvent e : drawn.events()) {
    e.start += base;
    plan.add(e);
  }
  telemetry::Registry registry;
  fault::Injector injector(registry);
  injector.arm(plan, seed);

  // A log big enough that the snapshot transfer has a mid-flight to be
  // reset in.
  controlplane::DescriptorLog log;
  for (cookies::CookieId id = 1; id <= 64; ++id) {
    log.append_add(make_descriptor(id));
  }
  controlplane::SyncServer server(log);

  netio::EventLoop loop(clock);
  netio::TcpServer::Config config;
  config.limits.idle_timeout = 2 * kSecond;
  config.limits.handshake_timeout = kSecond;
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  NetioLoopThread driver(loop);

  // The persistent control-plane client the schedule must not strand.
  netio::TcpSyncTransport::Config tcfg;
  tcfg.port = (*tcp)->port();
  tcfg.reconnect_interval = 30 * kMillisecond;
  netio::TcpSyncTransport transport(loop, tcfg);
  controlplane::TablePublisher tables;
  controlplane::SyncClient::Config ccfg;
  ccfg.client_id = seed;
  ccfg.poll_interval = 20 * kMillisecond;
  ccfg.response_timeout = 60 * kMillisecond;
  ccfg.backoff_base = 40 * kMillisecond;
  ccfg.backoff_max = 200 * kMillisecond;
  ccfg.breaker_failure_threshold = 3;
  ccfg.breaker_success_threshold = 2;
  controlplane::SyncClient client(clock, tables, ccfg, transport.send_fn());
  client.start();

  // Storm + pump until the schedule is spent, then give recovery a
  // quiet grace. Live log churn lands mid-schedule like ChaosSync's.
  uint64_t storm_id = 1000;
  bool churned = false;
  const Timestamp quiet = base + drawn.quiet_after();
  while (clock.now() < quiet + 3 * kSecond) {  // grace; breaks early
    if (!churned && clock.now() > base + 200 * kMillisecond) {
      log.append_add(make_descriptor(100));
      log.append_revoke(7);
      churned = true;
    }
    if (clock.now() < quiet) storm_client((*tcp)->port(), ++storm_id);
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    if (clock.now() >= quiet &&
        client.applied_version() == log.version() &&
        client.breaker_state() == controlplane::BreakerState::kClosed) {
      break;  // converged: no need to burn the rest of the grace
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Contract 2: converged, breaker closed, table at the head.
  EXPECT_EQ(client.applied_version(), log.version());
  EXPECT_EQ(client.breaker_state(), controlplane::BreakerState::kClosed);
  ASSERT_NE(tables.peek(), nullptr);
  EXPECT_EQ(tables.peek()->version(), log.version());
  ASSERT_NE(tables.peek()->find(7), nullptr);
  EXPECT_TRUE(tables.peek()->find(7)->revoked);

  // Contract 1: exact books once the edge settles. Storm clients have
  // all closed their ends; wait for the server to finish reaping, then
  // reconcile counters against the live table on the loop thread.
  auto& metrics = (*tcp)->metrics();
  const auto settled = [&] {
    uint64_t live = 0;
    std::atomic<bool> done{false};
    loop.post([&] {
      live = (*tcp)->connection_count();
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return metrics.accepts.value() == metrics.closes.value() + live;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metrics.accepts.value(),
            metrics.closes.value() +
                static_cast<uint64_t>(
                    metrics.connections(netio::ConnState::kHandshake) +
                    metrics.connections(netio::ConnState::kOpen) +
                    metrics.connections(netio::ConnState::kDraining)))
      << "an admitted connection leaked from the ledger";
  EXPECT_GT(metrics.accepts.value(), 0u) << "the storm never landed";
  EXPECT_GT(metrics.frames.value(), 0u) << "no sync frame was ever served";

  driver.stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosNetio,
                         ::testing::Range<uint64_t>(41, 47));

// Accept stall during an acquire storm: the edge stops admitting, the
// issuing path keeps granting (fail-open — the stall is an edge fault,
// not a service outage), the books count the stall window's sheds and
// balance once it lifts.
TEST(ChaosNetioStall, AcquireStormRidesOutAcceptStall) {
  util::SystemClock clock;
  telemetry::Registry registry;
  fault::Injector injector(registry);

  fault::FaultPlan plan;
  fault::FaultEvent stall;
  stall.kind = fault::FaultKind::kAcceptStall;
  stall.start = clock.now() + 50 * kMillisecond;
  stall.duration = 250 * kMillisecond;
  plan.add(stall);
  injector.arm(plan, 7);

  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  server::CookieServer cookie_server(clock, 7, &log);
  server::ServiceOffer offer;
  offer.name = "Boost";
  cookie_server.add_service(offer);

  netio::EventLoop loop(clock);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  NetioLoopThread driver(loop);

  // Storm through the stall window; every acquire must keep granting.
  const Timestamp stall_end = stall.start + stall.duration;
  uint64_t acquires = 0;
  uint64_t storm_id = 2000;
  while (clock.now() < stall_end + 100 * kMillisecond) {
    const auto grant = cookie_server.acquire("Boost", "storm");
    ASSERT_TRUE(grant.ok()) << "issuing path failed during an edge stall";
    ++acquires;
    // Short read timeout: inside the stall window nothing is accepted,
    // so every read times out — the storm must still turn over fast
    // enough to probe the whole window.
    storm_client((*tcp)->port(), ++storm_id, /*timeout_ms=*/50);
  }
  EXPECT_GT(acquires, 4u);

  // The stall window deferred admissions without losing them: clients
  // that connected into the listen backlog complete once it lifts.
  auto& metrics = (*tcp)->metrics();
  EXPECT_GT(metrics.accepts.value(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics.accepts.value() != metrics.closes.value() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(metrics.accepts.value(), metrics.closes.value());

  driver.stop();
}

// --- Encrypted transport under chaos (PR 10) -----------------------
//
// The QUIC-shaped trace through the threaded Dataplane facade while a
// full-kind-set schedule lands — migrations (kNatRebind) composed with
// admission pressure, skew, pauses, whatever the seed draws. Three
// events are pinned on top of every random schedule so the composition
// the PR cares about (migrate + shed + skew) happens on every seed.
// Invariants, in the suite's three shapes:
//   fail-open      — the shed ledger balances exactly and the arena
//                    leaks nothing;
//   replay safety  — accepts never exceed the cookie-bearing
//                    connections (each cookie is presented once);
//   no false boost — a band-0 verdict only ever lands on a connection
//                    that actually presented a cookie, faults or not.

class ChaosQuic : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosQuic, MigrationComposesWithPressureAndSkew) {
  const uint64_t seed = GetParam();
  util::SystemClock wall;
  fault::Injector injector;
  fault::SkewedClock clock(wall, injector);

  fault::FaultPlan::Spec spec;
  spec.horizon = 30 * kMillisecond;
  spec.min_duration = 5 * kMillisecond;
  spec.max_duration = 15 * kMillisecond;
  spec.max_magnitude = 0.5;
  spec.kinds = fault::kFaultKindCount;  // full set, kNatRebind included
  const fault::FaultPlan drawn = fault::FaultPlan::random(seed, spec);
  SCOPED_TRACE(trace_label(seed, drawn));

  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config;
  config.pool.workers = 2;
  config.pool.verdict_capacity = 1 << 12;
  runtime::Dataplane plane(clock, registry, config);
  plane.set_fault_injector(&injector);

  quic::QuicTraceGenerator::Config wl;
  wl.connections = 32;
  wl.packets_per_connection = 60;
  wl.rotate_every = 10;
  wl.cookie_fraction = 0.75;  // non-cookie conns probe the no-false-boost side
  util::ManualClock mint_clock(wall.now());  // producer thread only
  cookies::CookieVerifier staging(mint_clock);
  quic::QuicTraceGenerator gen(wl, mint_clock, &staging, seed);
  for (const auto& d : gen.descriptors()) plane.add_descriptor(d);
  gen.set_fault_injector(&injector);
  plane.start();

  // Fix the fault times only once the workers run. Under
  // instrumentation and load, the set-up above and worker thread
  // start-up can each outlast the 30 ms plan: the trace would miss the
  // rebind window, or the workers would first verify the whole
  // handshake backlog inside the skew window. One cookie-less probe per
  // worker, drained, proves every worker is up; a drained plane is
  // quiescent, so arming the injector here is within its contract. The
  // trace generator checks kNatRebind against mint_clock, so that clock
  // starts at the same instant as the plan.
  const size_t probes = plane.worker_count();
  uint32_t probe_flow = 1000;  // clear of the trace's connections
  for (size_t w = 0; w < probes; ++w) {
    net::Packet probe = flow_packet(probe_flow++);
    while (plane.route(probe) != w) probe = flow_packet(probe_flow++);
    runtime::PacketHandle h = plane.make_packet();
    ASSERT_TRUE(h);
    *h = std::move(probe);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  const Timestamp start = wall.now();
  const Timestamp base = start + 2 * kMillisecond;
  fault::FaultPlan plan;
  for (fault::FaultEvent e : drawn.events()) {
    e.start += base;
    plan.add(e);
  }
  // The guaranteed composition: every connection migrates, a pressure
  // burst sheds, a skew window pushes the verifier past the NCT.
  plan.add({fault::FaultKind::kNatRebind, base, 30 * kMillisecond, 1.0});
  plan.add({fault::FaultKind::kQueuePressure, base + 5 * kMillisecond,
            10 * kMillisecond, 0.3});
  plan.add({fault::FaultKind::kClockSkew, base + 12 * kMillisecond,
            8 * kMillisecond, 1.0, 8 * kSecond});
  injector.arm(plan, seed);
  mint_clock.set(start);

  const size_t total = gen.total_packets();
  for (size_t i = 0; i < total; ++i) {
    runtime::PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    gen.fill_next(*h);
    mint_clock.advance(50);
    plane.ingest(std::move(h));  // non-blocking: pressure really sheds
    // Stretch the producer across the real-time fault window.
    if ((i & 7) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  while (injector.any_active(wall.now())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  plane.drain();
  plane.stop();

  // Fail-open: the books balance and every arena slot came home.
  const runtime::WorkerSnapshot totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, total + probes)
      << "ledger imbalance";
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "arena leaked slots";

  // The pinned kNatRebind event really migrated connections.
  uint32_t migrations = 0, cookie_conns = 0;
  for (size_t c = 0; c < wl.connections; ++c) {
    migrations += gen.connection(c).migrations;
    if (gen.connection(c).has_cookie) ++cookie_conns;
  }
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(injector.injected(fault::FaultKind::kNatRebind), 0u);

  // Replay safety: one accept ceiling per presented cookie — sheds and
  // skew may cost accepts, never add them.
  EXPECT_LE(plane.total_verified(), cookie_conns);
  EXPECT_LE(plane.total_replays_detected(), plane.total_verified());

  // No false boost: a band-0 verdict can only belong to a connection
  // that presented a cookie, no matter how the faults fragmented flow
  // state. (Fail-open may COST cookie connections their action — a
  // shed handshake or rotation marker, a skewed verify — but must
  // never GRANT one to best-effort traffic.)
  std::vector<runtime::VerdictRecord> verdicts;
  plane.drain_verdicts(verdicts);
  EXPECT_EQ(verdicts.size(), totals.processed);
  uint64_t boosted = 0;
  for (const auto& v : verdicts) {
    if (!v.has_action) continue;
    ++boosted;
    ASSERT_LT(v.seq, wl.connections);
    EXPECT_TRUE(gen.connection(v.seq).has_cookie)
        << "best-effort connection " << v.seq << " got band 0";
  }
  // And the mechanism did work for someone: with magnitude-capped
  // faults most handshakes land, so boosts exist.
  EXPECT_GT(boosted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosQuic,
                         ::testing::Range<uint64_t>(61, 64));

}  // namespace
}  // namespace nnn
