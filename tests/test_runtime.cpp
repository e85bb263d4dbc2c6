// The threaded dataplane runtime (§4.6 executed, not modeled): ring
// semantics, per-flow ordering, concurrent double-spend under both
// dispatch policies, backpressure accounting, graceful lifecycle,
// idle workers parking on their doorbells and waking on ingest.
// This suite is the primary target of the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "cookies/generator.h"
#include "cookies/transport.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "quic/workload.h"
#include "runtime/dataplane.h"
#include "runtime/mpsc_ring.h"
#include "runtime/spsc_ring.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "util/logging.h"

namespace nnn::runtime {
namespace {

using dataplane::DispatchPolicy;

// --- Ring semantics ------------------------------------------------

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> ring(4);  // rounds to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // strict FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
}

TEST(SpscRing, BatchPopRespectsMaxAndOrder) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.try_push(int(i));
  int buf[4];
  EXPECT_EQ(ring.pop_batch(buf, 4), 4u);
  EXPECT_EQ(buf[0], 0);
  EXPECT_EQ(buf[3], 3);
  EXPECT_EQ(ring.pop_batch(buf, 4), 4u);
  EXPECT_EQ(ring.pop_batch(buf, 4), 2u);  // partial final burst
  EXPECT_EQ(buf[1], 9);
  EXPECT_EQ(ring.pop_batch(buf, 4), 0u);
}

TEST(SpscRing, MovesValuesThrough) {
  SpscRing<std::unique_ptr<int>> ring(4);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 7);
}

/// Two real threads across the ring; every value arrives exactly once
/// and in order. TSan validates the memory-order protocol.
TEST(SpscRing, CrossThreadFifo) {
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kCount = 200'000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.try_push(uint64_t(i))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  uint64_t expected = 0;
  uint64_t buf[32];
  while (expected < kCount) {
    const size_t n = ring.pop_batch(buf, 32);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected) << "out of order";
      ++expected;
    }
  }
  producer.join();
}

TEST(MpscRing, SingleThreadRoundTrip) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full
  int out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

/// Four producers, one consumer: every value exactly once.
TEST(MpscRing, ConcurrentProducersDeliverEverything) {
  MpscRing<uint64_t> ring(512);
  constexpr uint64_t kPerProducer = 20'000;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer;) {
        // Encode producer in the high bits for per-producer FIFO check.
        if (ring.try_push((uint64_t(p) << 32) | i)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> next(kProducers, 0);
  uint64_t received = 0;
  uint64_t buf[64];
  while (received < kPerProducer * kProducers) {
    const size_t n = ring.pop_batch(buf, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      const int p = static_cast<int>(buf[i] >> 32);
      const uint64_t seq = buf[i] & 0xffffffff;
      ASSERT_EQ(seq, next[p]) << "per-producer order violated";
      ++next[p];
    }
    received += n;
  }
  for (auto& t : producers) t.join();
}

// --- Plane fixtures ------------------------------------------------

cookies::CookieDescriptor make_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(0x40 + id));
  d.service_data = "Boost";
  return d;
}

net::Packet flow_packet(uint32_t flow_id, uint32_t seq) {
  net::Packet p;
  p.tuple.src_ip = net::IpAddress::v4(0x0a000000u | flow_id);
  p.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 1);
  p.tuple.src_port = static_cast<uint16_t>(1024 + flow_id);
  p.tuple.dst_port = 443;
  p.tuple.proto = net::L4Proto::kUdp;
  p.wire_size = 512;
  p.seq = seq;
  return p;
}

struct PlaneFixture {
  util::SystemClock clock;  // safe for concurrent reads
  dataplane::ServiceRegistry registry;
  Dataplane plane;

  explicit PlaneFixture(Dataplane::Config config)
      : plane(clock, registry, config) {
    registry.bind("Boost", dataplane::PriorityAction{0});
  }

  /// Build `packet` in an arena slot and ingest it; false = shed.
  bool ingest(net::Packet packet) {
    PacketHandle h = plane.make_packet();
    if (h) *h = std::move(packet);
    return plane.ingest(std::move(h));
  }

  /// Closed loop: waits for an arena slot and ring space, never sheds.
  /// The plane must be running (workers free the slots).
  void ingest_blocking(net::Packet packet) {
    PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    *h = std::move(packet);
    plane.ingest_blocking(std::move(h));
  }
};

Dataplane::Config plane_config(DispatchPolicy policy, size_t workers) {
  Dataplane::Config config;
  config.policy = policy;
  config.pool.workers = workers;
  return config;
}

// --- Per-flow ordering ---------------------------------------------

/// All packets of one flow route to one worker (flow hash) and cross
/// one SPSC ring, so the runtime preserves per-flow order even with
/// many workers and interleaved flows.
TEST(Runtime, PerFlowOrderingPreserved) {
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, 4);
  config.pool.ring_capacity = 256;
  config.pool.verdict_capacity = 1 << 15;
  PlaneFixture fx(config);
  fx.plane.start();

  constexpr uint32_t kFlows = 16;
  constexpr uint32_t kPacketsPerFlow = 500;
  for (uint32_t seq = 0; seq < kPacketsPerFlow; ++seq) {
    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      fx.ingest_blocking(flow_packet(flow, seq));
    }
  }
  fx.plane.drain();
  fx.plane.stop();

  std::vector<VerdictRecord> verdicts;
  fx.plane.drain_verdicts(verdicts);
  ASSERT_EQ(verdicts.size(), size_t{kFlows} * kPacketsPerFlow);

  std::map<net::FiveTuple, uint32_t> next_seq;
  std::map<net::FiveTuple, uint32_t> flow_worker;
  for (const auto& v : verdicts) {
    // Records from different workers interleave arbitrarily in the
    // MPSC ring; within one flow, sequence must be monotonic.
    auto [it, fresh] = next_seq.try_emplace(v.tuple, 0);
    EXPECT_EQ(v.seq, it->second) << "flow reordered";
    ++it->second;
    auto [wit, first] = flow_worker.try_emplace(v.tuple, v.worker);
    EXPECT_EQ(v.worker, wit->second) << "flow migrated between workers";
  }
  EXPECT_EQ(next_seq.size(), kFlows);
}

/// Flow hashing steers a tuple flow by its direction-free key, so the
/// reverse direction reaches the shard that holds the flow's mapping:
/// Boost's downloads are the reverse direction of the request that
/// carried the cookie. Each flow gets one UDP-shim cookie, then nine
/// cookie-less reverse packets, with the plane drained in between.
TEST(Runtime, ReversePacketsReachTheirMappingUnderFlowHash) {
  constexpr uint32_t kFlows = 256;
  constexpr uint32_t kReverse = 9;
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, workers);
    config.pool.verdict_capacity = 1 << 12;
    PlaneFixture fx(config);
    const cookies::CookieDescriptor descriptor = make_descriptor(5);
    fx.plane.add_descriptor(descriptor);
    cookies::CookieGenerator generator(descriptor, fx.clock, 5);
    fx.plane.start();
    for (uint32_t flow = 0; flow < kFlows; ++flow) {
      net::Packet p = flow_packet(flow, 0);
      cookies::attach(p, generator.generate(), cookies::Transport::kUdpHeader);
      fx.ingest_blocking(std::move(p));
    }
    fx.plane.drain();
    for (uint32_t seq = 1; seq <= kReverse; ++seq) {
      for (uint32_t flow = 0; flow < kFlows; ++flow) {
        net::Packet p = flow_packet(flow, seq);
        p.tuple = p.tuple.reversed();
        fx.ingest_blocking(std::move(p));
      }
      fx.plane.drain();
    }
    fx.plane.stop();

    std::vector<VerdictRecord> verdicts;
    fx.plane.drain_verdicts(verdicts);
    ASSERT_EQ(verdicts.size(), size_t{kFlows} * (1 + kReverse));
    size_t mapped = 0, reverse = 0, carried = 0;
    for (const VerdictRecord& v : verdicts) {
      if (v.seq == 0) {
        mapped += v.mapped_now ? 1 : 0;
        continue;
      }
      ++reverse;
      carried += v.has_action ? 1 : 0;
    }
    EXPECT_EQ(mapped, kFlows);
    EXPECT_EQ(carried, reverse) << "reverse packets that missed the mapping";
  }
}

// --- Concurrent double-spend (§4.6) --------------------------------

/// Mint ONE cookie and replay it on tuples spread across flows while
/// four workers run concurrently. Under descriptor affinity every copy
/// routes to the same worker whose replay cache accepts exactly one.
TEST(Runtime, ConcurrentDoubleSpendRejectedUnderAffinity) {
  constexpr size_t kWorkers = 4;
  PlaneFixture fx(
      plane_config(DispatchPolicy::kDescriptorAffinity, kWorkers));
  fx.plane.add_descriptor(make_descriptor(1));

  util::ManualClock mint_clock(fx.clock.now());  // same epoch as pool
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  const cookies::Cookie cookie = gen.generate();

  fx.plane.start();
  constexpr int kFlowGroups = 4;
  constexpr int kCopiesPerGroup = 8;
  uint64_t routed = 0;
  for (int g = 0; g < kFlowGroups; ++g) {
    for (int i = 0; i < kCopiesPerGroup; ++i) {
      // Distinct flows so kFlowHash would spread them; the SAME
      // cookie (same uuid) on all of them.
      net::Packet packet =
          flow_packet(static_cast<uint32_t>(g * 100 + i), 0);
      cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
      if (fx.ingest(std::move(packet))) ++routed;
    }
  }
  fx.plane.drain();
  fx.plane.stop();

  constexpr uint64_t kTotal = kFlowGroups * kCopiesPerGroup;
  EXPECT_EQ(routed, kTotal);
  // The paper's fix: exactly one acceptance, everything else replayed.
  EXPECT_EQ(fx.plane.total_verified(), 1u);
  EXPECT_EQ(fx.plane.total_replays_detected(), kTotal - 1);

  // All copies landed on the worker the cookie id pins to.
  uint64_t workers_touched = 0;
  for (size_t w = 0; w < fx.plane.worker_count(); ++w) {
    if (fx.plane.middlebox(w).stats().task_search_and_verify > 0) {
      ++workers_touched;
    }
  }
  EXPECT_EQ(workers_touched, 1u);
}

/// Same scenario under kFlowHash: the replay caches are independent,
/// so the copied cookie is accepted once per worker it reaches — the
/// documented weakness that motivates descriptor affinity.
TEST(Runtime, FlowHashAcceptsOncePerWorker) {
  constexpr size_t kWorkers = 4;
  PlaneFixture fx(plane_config(DispatchPolicy::kFlowHash, kWorkers));
  fx.plane.add_descriptor(make_descriptor(1));

  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  const cookies::Cookie cookie = gen.generate();

  // Pick one flow tuple per worker (route() is deterministic).
  std::vector<net::Packet> copies;
  std::vector<bool> covered(kWorkers, false);
  for (uint32_t flow = 0; copies.size() < kWorkers; ++flow) {
    ASSERT_LT(flow, 10'000u) << "flow hash never covered all workers";
    net::Packet packet = flow_packet(flow, 0);
    cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
    const size_t worker = fx.plane.route(packet);
    if (!covered[worker]) {
      covered[worker] = true;
      copies.push_back(std::move(packet));
    }
  }

  fx.plane.start();
  for (auto& copy : copies) EXPECT_TRUE(fx.ingest(std::move(copy)));
  fx.plane.drain();
  fx.plane.stop();

  // One acceptance PER SHARD: the double-spend the paper warns about.
  EXPECT_EQ(fx.plane.total_verified(), uint64_t{kWorkers});
  EXPECT_EQ(fx.plane.total_replays_detected(), 0u);
}

// --- Backpressure accounting ---------------------------------------

/// Fill a deliberately tiny ring with the plane not yet started: the
/// overflow is shed fail-open, nothing is lost, and the accounting
/// identity offered == routed + shed holds.
TEST(Runtime, BackpressureCountsAndForwardsBestEffort) {
  constexpr size_t kRing = 16;
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, 1);
  config.pool.ring_capacity = kRing;
  PlaneFixture fx(config);

  constexpr uint64_t kOffered = 100;
  uint64_t routed = 0;
  uint64_t shed = 0;
  for (uint32_t i = 0; i < kOffered; ++i) {
    if (fx.ingest(flow_packet(i, i))) {
      ++routed;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(routed, kRing);
  EXPECT_EQ(fx.plane.snapshot().totals().shed, shed);  // never dropped

  // Late start still processes exactly what was queued.
  fx.plane.start();
  fx.plane.drain();
  fx.plane.stop();
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.packets, routed);
  EXPECT_EQ(totals.processed + totals.shed, kOffered);
}

// --- Lifecycle -----------------------------------------------------

TEST(Runtime, DrainGivesDeterministicCountsAndQuiescentReads) {
  Dataplane::Config config =
      plane_config(DispatchPolicy::kDescriptorAffinity, 2);
  config.pool.ring_capacity = 4096;
  PlaneFixture fx(config);
  fx.plane.add_descriptor(make_descriptor(3));

  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(3), mint_clock, 11);

  fx.plane.start();
  constexpr uint32_t kFlows = 200;
  for (uint32_t flow = 0; flow < kFlows; ++flow) {
    // Keep mint time current so cookies stay inside the NCT window
    // even when the suite runs slowly (TSan, loaded CI machine).
    mint_clock.set(fx.clock.now());
    net::Packet first = flow_packet(flow, 0);
    cookies::attach(first, gen.generate(), cookies::Transport::kUdpHeader);
    fx.ingest_blocking(std::move(first));
    for (uint32_t seq = 1; seq < 5; ++seq) {
      fx.ingest_blocking(flow_packet(flow, seq));
    }
  }
  fx.plane.drain();

  // Quiescent: totals are exact and non-atomic state is readable.
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.packets, uint64_t{kFlows} * 5);
  EXPECT_EQ(fx.plane.total_verified(), kFlows);
  uint64_t middlebox_packets = 0;
  for (size_t w = 0; w < fx.plane.worker_count(); ++w) {
    middlebox_packets += fx.plane.middlebox(w).stats().packets;
  }
  EXPECT_EQ(middlebox_packets, totals.packets);

  fx.plane.stop();
  EXPECT_FALSE(fx.plane.running());
  // Counts unchanged by shutdown.
  EXPECT_EQ(fx.plane.snapshot().totals().packets, uint64_t{kFlows} * 5);
}

TEST(Runtime, StopWithoutDrainProcessesQueuedPackets) {
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, 2);
  config.pool.ring_capacity = 1024;
  PlaneFixture fx(config);
  fx.plane.start();
  constexpr uint32_t kPackets = 400;
  for (uint32_t i = 0; i < kPackets; ++i) {
    fx.ingest_blocking(flow_packet(i % 32, i));
  }
  // stop() without drain(): workers finish their rings before exiting.
  fx.plane.stop();
  EXPECT_EQ(fx.plane.snapshot().totals().packets, kPackets);
}

/// PR 5 satellite: the shed ledger must reconcile exactly with the
/// producer's enqueue totals even when stop() races an injected
/// queue-pressure burst and a worker pause — every submit attempt ends
/// up as processed or shed, never silently lost. Runs under TSan.
TEST(Runtime, ShedLedgerReconcilesWhenStopRacesQueuePressure) {
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, 2);
  config.pool.ring_capacity = 64;  // small on purpose: real ring-full sheds
  PlaneFixture fx(config);

  fault::Injector injector;
  fault::FaultPlan plan;
  const util::Timestamp now = fx.clock.now();
  // Queue-pressure Bernoulli over the whole window, plus a pause that
  // wedges worker 0 across the stop() — its ring leftovers must be
  // reclaimed into shed.
  plan.add({fault::FaultKind::kQueuePressure, now, 10 * util::kSecond, 0.5,
            0, fault::kAllTargets});
  plan.add({fault::FaultKind::kPause, now + 2 * util::kMillisecond,
            10 * util::kSecond, 1.0, 0, 0});
  injector.arm(plan, 42);
  fx.plane.set_fault_injector(&injector);
  fx.plane.start();

  constexpr uint64_t kAttempts = 20000;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::thread producer([&] {
    for (uint64_t i = 0; i < kAttempts; ++i) {
      // One attempt per packet through the arena path: an exhausted
      // arena rides the empty handle into ingest(), which counts the
      // shed. The slot comes straight from the arena (any thread), not
      // the producer stash, because stop() below returns that stash
      // from the main thread. 64 flows hash onto both workers.
      runtime::PacketHandle handle = fx.plane.arena().try_alloc();
      if (handle) {
        *handle = flow_packet(static_cast<uint32_t>(i % 64),
                              static_cast<uint32_t>(i));
      }
      if (fx.plane.ingest(std::move(handle))) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      } else {
        rejected.fetch_add(1, std::memory_order_relaxed);
      }
      if (i % 512 == 0) std::this_thread::yield();
    }
  });
  // Stop while the producer is (very likely) still submitting — the
  // race under test. Correctness must not depend on the timing, but
  // the pressure check below needs the producer to have reached the
  // injector before stop() sheds everything ahead of it, and the
  // pause needs to have begun. So wait for both, bounded, instead of
  // guessing with a fixed sleep. Wait also until the arena has turned
  // over twice: an ingested slot comes home on a return ring, and
  // try_alloc() must find it there.
  const uint64_t turned_over = 2 * fx.plane.arena().capacity();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((accepted.load() + rejected.load() == 0 ||
          injector.injected(fault::FaultKind::kQueuePressure) == 0 ||
          fx.clock.now() < now + 2 * util::kMillisecond ||
          accepted.load() <= turned_over) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  fx.plane.stop();
  producer.join();

  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(accepted.load() + rejected.load(), kAttempts);
  EXPECT_GT(accepted.load(), turned_over)
      << "the arena ran dry: try_alloc() slots did not come home";
  // The ledger: every attempt is processed or shed, exactly once.
  EXPECT_EQ(totals.processed + totals.shed, kAttempts);
  // Shed = refused at admission + reclaimed from rings at stop().
  EXPECT_EQ(totals.shed - rejected.load(), accepted.load() - totals.processed);
  // The pause + pressure made the valve actually operate.
  EXPECT_GT(totals.shed, 0u);
  EXPECT_GT(injector.injected(fault::FaultKind::kQueuePressure), 0u);
}

/// The default arena holds every slot that can be outstanding at once:
/// with every worker paused and every ring full, the producer still
/// gets a full burst of slots.
TEST(Runtime, DefaultArenaLeavesAProducerBurstOverFullRings) {
  constexpr size_t kWorkers = 2;
  constexpr size_t kRing = 64;
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, kWorkers);
  config.pool.ring_capacity = kRing;
  PlaneFixture fx(config);

  fault::Injector injector;
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kPause, fx.clock.now(), 60 * util::kSecond,
            1.0, 0, fault::kAllTargets});
  injector.arm(plan, 7);
  fx.plane.set_fault_injector(&injector);
  fx.plane.start();

  // Fill every ring through ingest(), steering by route().
  std::vector<size_t> queued(kWorkers, 0);
  uint32_t flow = 0;
  for (size_t filled = 0; filled < kWorkers; ++flow) {
    net::Packet packet = flow_packet(flow, flow);
    const size_t worker = fx.plane.route(packet);
    if (queued[worker] == kRing) continue;
    ASSERT_TRUE(fx.ingest(std::move(packet))) << "flow " << flow;
    if (++queued[worker] == kRing) ++filled;
  }
  for (size_t worker = 0; worker < kWorkers; ++worker) {
    net::Packet packet = flow_packet(flow, flow);
    while (fx.plane.route(packet) != worker) {
      ++flow;
      packet = flow_packet(flow, flow);
    }
    EXPECT_FALSE(fx.ingest(std::move(packet))) << "ring " << worker
                                               << " is not full";
  }

  std::vector<PacketHandle> burst;
  for (size_t i = 0; i < config.pool.batch_size; ++i) {
    burst.push_back(fx.plane.make_packet());
    EXPECT_TRUE(burst.back()) << "slot " << i << " of the burst";
  }
  EXPECT_EQ(fx.plane.arena().alloc_failures(), 0u);
  burst.clear();
  fx.plane.stop();
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

TEST(Runtime, LifecycleIsIdempotent) {
  PlaneFixture fx(plane_config(DispatchPolicy::kDescriptorAffinity, 2));
  fx.plane.stop();   // stop before start: no-op
  fx.plane.drain();  // drain before start: no-op (nothing submitted)
  fx.plane.start();
  fx.plane.start();  // double start: no-op
  fx.plane.stop();
  fx.plane.stop();  // double stop: no-op
  EXPECT_EQ(fx.plane.snapshot().totals().packets, 0u);
}

TEST(Runtime, DestructorJoinsRunningPool) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  auto plane = std::make_unique<Dataplane>(
      clock, registry,
      plane_config(DispatchPolicy::kDescriptorAffinity, 2));
  plane->start();
  plane.reset();  // must join, not crash or leak threads
}

// --- Idle workers park on a doorbell -------------------------------

/// Polls `done` until it holds or `timeout` passes. Waiting with a
/// deadline instead of drain() turns a lost wake-up into a failure in
/// seconds rather than a hang.
template <typename Done>
bool eventually(Done done,
                std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

bool every_worker_parked(const Dataplane& plane) {
  for (const WorkerSnapshot& w : plane.snapshot().workers) {
    if (w.parks == 0) return false;
  }
  return true;
}

/// A worker whose ring stays empty past its poll budget blocks on its
/// doorbell; a packet steered to it must wake it.
TEST(Runtime, IdleWorkersParkAndIngestWakesThem) {
  constexpr size_t kWorkers = 3;
  PlaneFixture fx(plane_config(DispatchPolicy::kFlowHash, kWorkers));
  fx.plane.start();
  ASSERT_TRUE(eventually([&] { return every_worker_parked(fx.plane); }))
      << "a worker never parked";

  uint32_t flow = 0;
  for (size_t worker = 0; worker < kWorkers; ++worker) {
    net::Packet packet = flow_packet(flow, flow);
    while (fx.plane.route(packet) != worker) {
      ++flow;
      packet = flow_packet(flow, flow);
    }
    ASSERT_TRUE(fx.ingest(std::move(packet)));
  }
  const bool woke = eventually([&] {
    for (const WorkerSnapshot& w : fx.plane.snapshot().workers) {
      if (w.processed != 1) return false;
    }
    return true;
  });
  fx.plane.stop();
  EXPECT_TRUE(woke) << "a parked worker missed its packet";
  for (const WorkerSnapshot& w : fx.plane.snapshot().workers) {
    EXPECT_EQ(w.processed, 1u);
    EXPECT_EQ(w.shed, 0u);
  }
}

/// Packets that land while a worker spins, yields, is about to park or
/// is parked are all processed: rounds of 1-3 packets separated by idle
/// gaps on both sides of the 1 ms poll budget.
TEST(Runtime, NoLostWakeUpAcrossThePollBudget) {
  constexpr size_t kWorkers = 2;
  constexpr int kRounds = 300;
  constexpr std::array<std::chrono::microseconds, 5> kGaps = {
      std::chrono::microseconds(0), std::chrono::microseconds(500),
      std::chrono::microseconds(1000), std::chrono::microseconds(1500),
      std::chrono::microseconds(3000)};
  PlaneFixture fx(plane_config(DispatchPolicy::kFlowHash, kWorkers));
  fx.plane.start();

  std::mt19937 rng(23);
  uint64_t attempts = 0;
  uint64_t accepted = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int packets = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < packets; ++i) {
      const auto flow = static_cast<uint32_t>(rng() % 64);
      if (fx.ingest(flow_packet(flow, static_cast<uint32_t>(attempts)))) {
        ++accepted;
      }
      ++attempts;
    }
    uint64_t processed = 0;
    const bool caught_up = eventually([&] {
      processed = fx.plane.snapshot().totals().processed;
      return processed == accepted;
    });
    if (!caught_up) {
      fx.plane.stop();
      FAIL() << "round " << round << ": " << accepted << " ingested, "
             << processed << " processed before stop()";
    }
    std::this_thread::sleep_for(kGaps[rng() % kGaps.size()]);
  }
  fx.plane.stop();

  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(accepted, attempts);  // rings never fill at 3 packets a round
  EXPECT_EQ(totals.processed + totals.shed, attempts);
  EXPECT_GT(totals.parks, 0u) << "no gap outlasted the poll budget";
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u);
}

/// stop() on parked workers wakes them, so it returns with the books
/// balanced and every slot back in the arena.
TEST(Runtime, StopWakesParkedWorkers) {
  PlaneFixture fx(plane_config(DispatchPolicy::kFlowHash, 2));
  fx.plane.start();
  constexpr uint32_t kPackets = 64;
  uint64_t accepted = 0;
  for (uint32_t i = 0; i < kPackets; ++i) {
    if (fx.ingest(flow_packet(i, i))) ++accepted;
  }
  // Past the last packet and then past the 1 ms poll budget, so that
  // both workers are parked, not polling, when stop() runs.
  const bool drained = eventually(
      [&] { return fx.plane.snapshot().totals().processed == accepted; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const bool parked =
      drained && eventually([&] { return every_worker_parked(fx.plane); });
  fx.plane.stop();
  EXPECT_TRUE(parked) << "workers never parked";
  EXPECT_FALSE(fx.plane.running());
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, kPackets);
  EXPECT_EQ(totals.processed, accepted);
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

// --- Concurrent telemetry export (TSan target) ---------------------

/// Workers hammer their counters while a reader thread repeatedly
/// snapshots the global registry and renders both exporters — the
/// scrape-during-load case a /metrics endpoint lives in. Two inputs:
/// classic UDP with cookies under flow hash, and a QUIC trace with CID
/// rotations under descriptor affinity, where the ingest thread grows
/// the balancer's alias table while the reader exports it. TSan
/// verifies the relaxed-atomic cells and the registry mutex discipline.
TEST(Runtime, RegistrySnapshotsRaceFreeWithRunningPool) {
  for (const bool quic_trace : {false, true}) {
    SCOPED_TRACE(quic_trace ? "QUIC trace" : "classic UDP");
    Dataplane::Config config =
        plane_config(quic_trace ? DispatchPolicy::kDescriptorAffinity
                                : DispatchPolicy::kFlowHash,
                     2);
    config.pool.ring_capacity = 1024;
    PlaneFixture fx(config);

    util::ManualClock mint_clock(fx.clock.now());
    cookies::CookieGenerator gen(make_descriptor(7), mint_clock, 3);
    quic::QuicTraceGenerator::Config wl;
    wl.connections = 64;
    wl.packets_per_connection = 60;
    wl.rotate_every = 10;
    quic::QuicTraceGenerator trace(wl, mint_clock, nullptr, 23);
    if (quic_trace) {
      for (const auto& d : trace.descriptors()) fx.plane.add_descriptor(d);
    } else {
      fx.plane.add_descriptor(make_descriptor(7));
    }

    fx.plane.start();
    std::atomic<bool> done{false};
    std::thread reader([&done] {
      uint64_t last_processed = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = telemetry::Registry::global().snapshot();
        const uint64_t processed =
            snap.counter_total("nnn_pool_processed_total");
        EXPECT_GE(processed, last_processed) << "counter went backwards";
        last_processed = processed;
        // Render both exporters too: they read histogram buckets.
        telemetry::to_prometheus(snap);
        telemetry::to_json(snap);
      }
    });
    const size_t packets = quic_trace ? trace.total_packets() : 20'000;
    for (uint32_t i = 0; i < packets; ++i) {
      if (i % 10 == 0) mint_clock.set(fx.clock.now());
      net::Packet p;
      if (quic_trace) {
        trace.fill_next(p);
      } else {
        p = flow_packet(i % 64, i);
        if (i % 4 == 0) {
          cookies::attach(p, gen.generate(), cookies::Transport::kUdpHeader);
        }
      }
      fx.ingest_blocking(std::move(p));
    }
    fx.plane.drain();
    done.store(true, std::memory_order_release);
    reader.join();
    fx.plane.stop();

    const auto totals = fx.plane.snapshot().totals();
    EXPECT_EQ(totals.processed, packets);
    EXPECT_GT(fx.plane.total_verified(), 0u);
    // Quiescent now: the registry and the accessors agree exactly.
    const auto snap = telemetry::Registry::global().snapshot();
    EXPECT_EQ(snap.counter_total("nnn_pool_processed_total"),
              totals.processed);
    EXPECT_EQ(snap.counter_total("nnn_verify_total",
                                 telemetry::LabelSet{{"status", "ok"}}),
              fx.plane.total_verified());
    EXPECT_GE(snap.counter_total("nnn_pool_batches_total"), 1u);
  }
}

// --- Thread-safe logger (satellite) --------------------------------

TEST(Runtime, LoggerIsThreadSafeUnderConcurrentLogsAndSinkSwaps) {
  auto& logger = util::Logger::instance();
  logger.set_level(util::LogLevel::kDebug);
  std::atomic<uint64_t> captured{0};
  logger.set_sink([&captured](util::LogLevel, std::string_view) {
    captured.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 500; ++i) {
        util::log_debug("worker {} message {}", t, i);
      }
    });
  }
  // Concurrent level changes exercise the atomic.
  logger.set_level(util::LogLevel::kDebug);
  for (auto& t : threads) t.join();
  EXPECT_EQ(captured.load(), 4u * 500);
  logger.set_sink(nullptr);
  logger.set_level(util::LogLevel::kWarn);
}

// --- Zero-copy dataplane (PR 8) -------------------------------------

/// Arena exhaustion is fail-open: with every slot held hostage,
/// make_packet() returns empty handles and ingest() sheds — it never
/// blocks and never loses a ledger entry. When the slots come back the
/// plane processes normally and the arena balances to zero.
TEST(Runtime, ArenaExhaustionShedsAndBalancesLedger) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  Dataplane::Config config;
  config.pool.workers = 2;
  config.pool.arena_slots = 16;  // tiny on purpose
  Dataplane plane(clock, registry, config);

  // Drain the arena completely.
  std::vector<PacketHandle> hostages;
  for (;;) {
    PacketHandle h = plane.make_packet();
    if (!h) break;
    hostages.push_back(std::move(h));
  }
  EXPECT_EQ(hostages.size(), plane.arena().capacity());
  EXPECT_GE(plane.arena().alloc_failures(), 1u);

  // Exhausted ingest: empty handles shed immediately, no blocking
  // (the pool is not even started — nothing could unblock us).
  uint64_t attempts = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(plane.ingest(plane.make_packet()));
    ++attempts;
  }
  {
    auto totals = plane.snapshot().totals();
    EXPECT_EQ(totals.shed, attempts);
    EXPECT_EQ(totals.processed, 0u);
  }

  // Free the slots, run real traffic through, and reconcile.
  hostages.clear();
  plane.start();
  constexpr uint32_t kPackets = 500;
  for (uint32_t i = 0; i < kPackets; ++i) {
    PacketHandle h = plane.make_packet();
    while (!h) {
      std::this_thread::yield();
      h = plane.make_packet();
    }
    *h = flow_packet(i % 16, i);
    plane.ingest_blocking(std::move(h));
    ++attempts;
  }
  plane.drain();
  plane.stop();

  const auto totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, attempts);
  EXPECT_EQ(totals.processed, kPackets);
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "slots leaked";
}

/// TSan target: handles released by foreign threads race
/// Dataplane::stop()'s reclaim sweep and its return-ring sweep.
/// Single ownership means the races are freelist CASes only; the books
/// must still balance once everyone is done.
TEST(Runtime, HandleReleaseRacingStopKeepsArenaBalanced) {
  util::SystemClock clock;
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  Dataplane::Config config;
  config.pool.workers = 2;
  config.pool.ring_capacity = 64;
  Dataplane plane(clock, registry, config);
  plane.start();

  std::atomic<bool> done{false};
  std::vector<std::thread> holders;
  for (int t = 0; t < 3; ++t) {
    // Holders use arena().try_alloc() directly (MPMC-safe), NOT
    // make_packet() — that one is producer-thread-only by contract.
    holders.emplace_back([&plane, &done] {
      while (!done.load(std::memory_order_relaxed)) {
        PacketHandle h = plane.arena().try_alloc();
        if (h) h->seq = 1;  // touch the slot; released at scope end
        std::this_thread::yield();
      }
    });
  }

  uint64_t attempts = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    PacketHandle h = plane.make_packet();
    if (h) *h = flow_packet(i % 64, i);
    plane.ingest(std::move(h));  // sheds (empty handle/ring full) are fine
    ++attempts;
  }
  plane.stop();  // races the holders' release_raw calls
  done.store(true, std::memory_order_relaxed);
  for (auto& t : holders) t.join();

  const auto totals = plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, attempts);
  EXPECT_EQ(plane.arena().outstanding(), 0u) << "slots leaked";
}

// --- Emitted slots come home on return rings ------------------------

/// Once the loop holds enough slots, every make_packet() refills from
/// a worker's return ring: the freelist serves only first use, so the
/// arena pops at most each slot once however many packets pass.
TEST(Runtime, EmittedSlotsComeBackWithoutTheFreelist) {
  constexpr uint32_t kPackets = 20'000;
  for (const size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, workers);
    config.pool.ring_capacity = 64;
    PlaneFixture fx(config);
    fx.plane.start();
    for (uint32_t i = 0; i < kPackets; ++i) {
      fx.ingest_blocking(flow_packet(i % 256, i));
    }
    fx.plane.drain();
    EXPECT_LE(fx.plane.arena().total_allocs(), fx.plane.arena().capacity())
        << "emitted slots went through the freelist";
    fx.plane.stop();
    const auto totals = fx.plane.snapshot().totals();
    EXPECT_EQ(totals.processed, kPackets);
    EXPECT_EQ(totals.shed, 0u);
    EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
  }
}

/// One descriptor under descriptor affinity pins every cookie packet
/// to one worker, so one return ring carries most slots home while
/// the others stay nearly empty. The producer never runs dry: the
/// default arena covers what the rings and bursts can hold.
TEST(Runtime, SkewedReturnRingsKeepTheProducerFed) {
  constexpr size_t kWorkers = 4;
  constexpr uint32_t kPackets = 20'000;
  Dataplane::Config config =
      plane_config(DispatchPolicy::kDescriptorAffinity, kWorkers);
  config.pool.ring_capacity = 64;
  PlaneFixture fx(config);
  fx.plane.add_descriptor(make_descriptor(1));
  util::ManualClock mint_clock(fx.clock.now());
  cookies::CookieGenerator gen(make_descriptor(1), mint_clock, 7);
  const cookies::Cookie cookie = gen.generate();

  fx.plane.start();
  for (uint32_t i = 0; i < kPackets; ++i) {
    net::Packet packet = flow_packet(i % 256, i);
    // Nine in ten carry the one cookie (replays after the first: the
    // steering, not the verdict, is under test); the rest spread.
    if (i % 10 != 0) {
      cookies::attach(packet, cookie, cookies::Transport::kUdpHeader);
    }
    fx.ingest_blocking(std::move(packet));
  }
  fx.plane.drain();
  EXPECT_EQ(fx.plane.arena().alloc_failures(), 0u);
  uint64_t busiest = 0;
  for (const WorkerSnapshot& w : fx.plane.snapshot().workers) {
    busiest = std::max(busiest, w.processed);
  }
  EXPECT_GE(busiest, kPackets * 9 / 10) << "the load was not skewed";
  fx.plane.stop();
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.processed + totals.shed, kPackets);
  EXPECT_EQ(totals.shed, 0u);
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

/// stop() without drain() returns the slots waiting in the return
/// rings. One packet at a time through one worker: the first
/// make_packet() pops a chunk from the freelist, and once that chunk
/// is spent and processed every slot waits in the return ring.
TEST(Runtime, StopWithoutDrainEmptiesTheReturnRings) {
  PlaneFixture fx(plane_config(DispatchPolicy::kFlowHash, 1));
  fx.plane.start();
  for (uint32_t i = 0; i < PacketArena::kChunk; ++i) {
    ASSERT_TRUE(fx.ingest(flow_packet(i, i)));
    ASSERT_TRUE(eventually(
        [&] { return fx.plane.snapshot().totals().processed == i + 1; }));
  }
  EXPECT_EQ(fx.plane.arena().total_allocs(), PacketArena::kChunk);
  EXPECT_EQ(fx.plane.arena().outstanding(), PacketArena::kChunk)
      << "the emitted slots should wait in the return ring";
  fx.plane.stop();
  EXPECT_EQ(fx.plane.snapshot().totals().processed, PacketArena::kChunk);
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

/// A producer that builds in arena().try_alloc() slots instead of
/// make_packet()'s gets them back before stop(): an empty freelist
/// takes a chunk of emitted slots from the return rings. Twenty times
/// the arena passes through a plane that holds at most all of it.
TEST(Runtime, TryAllocTakesEmittedSlotsFromTheReturnRings) {
  Dataplane::Config config = plane_config(DispatchPolicy::kFlowHash, 2);
  config.pool.ring_capacity = 64;
  PlaneFixture fx(config);
  fx.plane.start();
  const uint64_t packets = 20 * fx.plane.arena().capacity();
  for (uint32_t i = 0; i < packets; ++i) {
    PacketHandle h;
    // Empty while the workers hold every slot; never until stop().
    ASSERT_TRUE(eventually([&] {
      h = fx.plane.arena().try_alloc();
      return static_cast<bool>(h);
    }, std::chrono::seconds(5)))
        << "no slot came home after " << i << " packets";
    *h = flow_packet(i % 256, i);
    fx.plane.ingest_blocking(std::move(h));
  }
  fx.plane.drain();
  fx.plane.stop();
  const auto totals = fx.plane.snapshot().totals();
  EXPECT_EQ(totals.processed, packets);
  EXPECT_EQ(totals.shed, 0u);
  EXPECT_EQ(fx.plane.arena().outstanding(), 0u) << "slots leaked";
}

}  // namespace
}  // namespace nnn::runtime
