// Dataplane: the threaded, zero-copy cookie middlebox (§4.6 scale-out)
// — the balancer, the worker shards behind it, and their lifecycle.
//
// "We can use multiple cores instead of one, and similarly add more
// than one middle-boxes to scale-out the deployment." The plane runs N
// worker threads, each owning a shard (its own CookieVerifier — hot
// tier + replay cache — and its own Middlebox with flow table), fed
// through one SPSC ring per worker in the run-to-completion style of
// DPDK pipelines. Because a worker's verifier and replay cache are
// touched by exactly one thread, the §4.2 use-once check needs no
// locks; cross-worker soundness is the steering's job (descriptor
// affinity, below). All workers read one published descriptor table.
//
// The contract is one verb with the steering inside:
//
//     runtime::Dataplane plane(clock, registry, config);
//     plane.start();
//     auto h = plane.make_packet();       // arena slot, recycled
//     if (h) { build *h in place; plane.ingest(std::move(h)); }
//     plane.drain();  plane.stop();
//
// Packets are built in place in the plane's PacketArena
// (PacketGenerator::fill_packet, wire decode) and the rings carry
// 4-byte slot indices, so the worker verifies/classifies/QoS-marks/
// emits the same bytes — zero payload copies between ingest and emit.
// Each burst is run to completion: pop handles -> pin epoch table ->
// batch verify/classify -> mark -> emit, no intermediate queues.
//
// Slots travel in a loop. At emit a worker pushes each slot onto its
// own SPSC return ring, and make_packet() refills the producer's stash
// from those rings, a chunk at a time, round robin; only when every
// return ring is empty does it pop the arena's freelist. A freelist
// pop reads a link the releasing core just wrote, one dependent
// cross-core miss per slot; a return ring hands over 16 slot indices
// per line. The producer also prefetches for write the slot it hands
// out three allocations later (PacketArena::Cache), so building a
// packet does not wait to take the lines a worker last read. The
// freelist still serves first use, arena().try_alloc() from any
// thread, shed handles and stop(). A slot from try_alloc() comes home
// on a return ring like any other, so a try_alloc() that finds the
// freelist empty first moves a chunk of returned slots onto it.
//
// ingest() demuxes by cookie identity: a cookie-bearing packet is
// pinned to worker steer_shard(cookie_id) — the cheap no-HMAC peek +
// the shared steering hash — so each descriptor's replay window lives
// on exactly one worker and the use-once check stays locally
// verifiable (the paper's double-spend fix). Cookie-less traffic
// spreads by five-tuple hash, preserving load balance where uniqueness
// does not matter. DispatchPolicy::kFlowHash turns the peek off for
// A/B runs (tests assert the double-spend hole it opens). This class
// is the only §4.6 balancer in the tree: it alone owns the CID
// steering state and calls pick_shard(), so the double-spend argument
// lives in one place.
//
// Failure semantics are fail-open at every edge, matching the paper:
// arena exhausted -> make_packet() returns an empty handle and
// ingest() of it counts a shed; worker ring full, injected queue
// pressure or plane stopping -> shed; in every case the slot is back
// on the freelist when ingest() returns false and the wire path never
// blocks. make_packet() comes back empty only when its stash, every
// return ring and the freelist are all empty. The shed ledger
// (attempts == processed + shed) covers every handle passed in.
//
// Threading contract:
//   - make_packet()/ingest()/ingest_blocking() — ONE producer thread
//     (the ingest thread). stop() may race ingest() from another
//     thread, but not make_packet(): it returns the producer's stash;
//   - arena().try_alloc() / PacketHandle release — any thread (the
//     freelist is lock-free MPMC); but building a packet in a slot and
//     ingesting it must happen on the producer thread;
//   - control plane (add_descriptor / revoke / bind_table_publisher /
//     set_fault_injector / middlebox / verifier accessors) — only
//     while the plane is quiescent: before start(), or after
//     drain()/stop() returns (the next ingest publishes an edit made
//     on a drained, running plane);
//   - snapshot()/total_* — any thread, any time (atomics only);
//   - the injected Clock must be safe to read concurrently
//     (SystemClock is; a ManualClock must not be advanced while
//     workers run).
//
// Idle workers: a worker whose ring turns empty parks its epoch reader,
// so it holds no table while idle; it holds no slots either, since
// each went home as it was emitted, and there is no stash to flush.
// It then polls the ring for up to 1 ms of wall time and,
// if nothing comes, blocks on a per-worker doorbell. ingest() rings
// that doorbell when the push it just made finds the worker blocked,
// and stop() rings every doorbell after it sets the stop flag; the
// ordering argument that no wake-up is lost sits at Worker::park() in
// dataplane.cpp. nnn_pool_parks_total{worker} counts the blocks.
//
// Lifecycle: start() spawns the threads; drain() blocks until every
// ingested packet has been processed (quiescence = per-worker
// processed == submitted, with acquire/release pairing so the caller
// may then read non-atomic state); stop() returns the producer stash,
// lets workers finish what is already in their rings, then joins them,
// returns what the return rings hold to the freelist and reclaims
// anything a fault-paused worker left behind into the shed ledger —
// so the books balance deterministically (attempts == processed +
// shed) whether or not drain() was called first, and every arena slot
// that entered a ring is back on the freelist when stop() returns
// (arena().outstanding() == 0 if the producer holds no handles).
// Between drain() and stop(), outstanding() counts the slots waiting
// in the producer's stash and in the return rings. The destructor
// stops and joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "controlplane/epoch.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "dataplane/sharding.h"
#include "net/packet.h"
#include "runtime/arena.h"
#include "runtime/mpsc_ring.h"
#include "runtime/spsc_ring.h"
#include "runtime/stats.h"
#include "util/clock.h"

namespace nnn::fault {
class Injector;
}

namespace nnn::runtime {

/// Compact record a worker publishes per processed packet when verdict
/// collection is enabled — the cross-thread replacement for returning
/// dataplane::Verdict by value to the caller.
struct VerdictRecord {
  uint32_t worker = 0;
  uint32_t seq = 0;  // copied from Packet::seq; tests use it for ordering
  net::FiveTuple tuple;
  bool has_action = false;
  bool mapped_now = false;
  std::optional<cookies::VerifyStatus> verify_status;
};

class Dataplane {
 public:
  /// The worker shards: threads, rings, arena and middlebox settings.
  struct PoolConfig {
    size_t workers = 1;
    /// Per-worker input ring capacity (rounded up to a power of two).
    size_t ring_capacity = 1024;
    /// Burst size for worker dequeue; ~32 amortizes ring overhead
    /// without hurting latency.
    size_t batch_size = 32;
    /// Capacity of the shared verdict ring; 0 disables collection.
    size_t verdict_capacity = 0;
    /// Packet-arena slots backing the rings. 0 = auto: the most the
    /// producer can be kept from at once — every ring full, plus each
    /// worker's popped burst, plus the producer's stash and a burst in
    /// flight.
    size_t arena_slots = 0;
    dataplane::Middlebox::Config middlebox{};
  };

  struct Config {
    PoolConfig pool{};
    dataplane::DispatchPolicy policy =
        dataplane::DispatchPolicy::kDescriptorAffinity;
  };

  /// `clock` and `registry` must outlive the dataplane. The registry is
  /// read concurrently by all workers and must not be mutated while
  /// the plane runs.
  Dataplane(const util::Clock& clock, dataplane::ServiceRegistry& registry,
            Config config);
  ~Dataplane();  // stops and joins if still running

  Dataplane(const Dataplane&) = delete;
  Dataplane& operator=(const Dataplane&) = delete;

  /// Allocate a recycled packet slot to build the next packet in
  /// (payload capacity is reused across occupants; cookie/flag fields
  /// are cleared). Empty handle when the arena is exhausted — pass it
  /// to ingest() anyway if you want the shed counted, or drop it.
  /// Producer thread only (slots come from the producer's stash, which
  /// refills from the workers' return rings before the freelist).
  PacketHandle make_packet();

  /// Steer by cookie identity and enqueue. Returns false when the
  /// packet was shed — ring full, injected queue pressure, or the
  /// plane is stopping — and counts it in the worker's shed ledger;
  /// a shed slot is back on the freelist (on success, the worker hands
  /// the slot back at emit). Shedding is the overload valve with
  /// the paper's fail-open semantics: the caller forwards the packet
  /// unverified (best-effort band), it never drops it, and it never
  /// blocks the wire path. Producer thread only.
  bool ingest(PacketHandle&& handle);

  /// Closed-loop variant: waits (yielding) for ring space instead of
  /// shedding — for benches and tests that need loss-free delivery.
  /// The handle keeps its slot across retries, so nothing is recopied.
  /// Still sheds for an empty handle (nothing to wait for), a stopping
  /// plane, or an injector rejection.
  void ingest_blocking(PacketHandle&& handle);

  /// Which worker ingest() would steer this packet to. Pure query: it
  /// consults the CID steering state but never learns from the packet
  /// (ingest() does the learning), so repeated calls agree.
  size_t route(const net::Packet& packet) const {
    return dataplane::pick_shard(packet, config_.policy, workers_.size(),
                                 aliases_);
  }

  // ---- lifecycle (see the file comment for the contracts) ----
  void start();
  /// Block until all ingested packets are processed. Callers must have
  /// stopped ingesting; concurrent ingest makes "drained" a moving
  /// target.
  void drain();
  /// Return the producer stash, drain what is already in the rings,
  /// join the threads, then return the return rings' slots to the
  /// freelist. Idempotent.
  void stop();
  bool running() const { return running_; }

  // ---- control plane (quiescent only) ----
  /// Stage a descriptor in the plane's one store, which start() or the
  /// next ingest publishes to every worker (replay caches stay per
  /// worker — see §4.6). Ignored once a table publisher is bound —
  /// descriptor state then flows exclusively through the sync channel.
  void add_descriptor(const cookies::CookieDescriptor& descriptor);
  /// Stage a revocation; ignored once a table publisher is bound (see
  /// add_descriptor).
  void revoke(cookies::CookieId id);
  /// Bind the plane to a control-plane table publisher in place of its
  /// own. Must be called before start(); the publisher must outlive
  /// the plane. Each worker registers an epoch reader and thereafter
  /// verifies every burst against the publisher's current table
  /// (re-acquired per burst — a swap costs the worker two uncontended
  /// atomic ops, never a lock), parking at idle and exit so retired
  /// tables reclaim promptly.
  void bind_table_publisher(controlplane::TablePublisher& publisher);
  /// Hook the plane into a fault injector: admission consults
  /// reject_admission() and workers consult paused(). Before start()
  /// only; the injector must outlive the plane. Null detaches. Workers
  /// pass their index as the injector's worker id.
  void set_fault_injector(const fault::Injector* injector);

  // ---- observability ----
  /// Consistent counters, safe while running.
  RuntimeSnapshot snapshot() const;
  /// Cookies the worker verifiers accepted, and rejected as replays:
  /// sums of their nnn_verify_total cells, safe while running.
  uint64_t total_verified() const;
  uint64_t total_replays_detected() const;
  /// Drain collected verdicts (single consumer). Returns how many were
  /// appended to `out`. No-op (0) unless verdict_capacity > 0.
  size_t drain_verdicts(std::vector<VerdictRecord>& out);
  /// Quiescent plane only (see the threading contract), except their
  /// stats(), which read telemetry cells and are safe at any time. A
  /// verifier's table may be reclaimed since its last burst: no lookups.
  const dataplane::Middlebox& middlebox(size_t worker) const;
  const cookies::CookieVerifier& verifier(size_t worker) const;
  dataplane::DispatchPolicy policy() const { return config_.policy; }
  size_t worker_count() const { return workers_.size(); }
  /// The slab pool the rings index into. Producers build packets in
  /// slots allocated here; workers hand the slots back at emit.
  PacketArena& arena() { return arena_; }
  const PacketArena& arena() const { return arena_; }

 private:
  struct Worker;

  enum class EnqueueResult : uint8_t {
    kEnqueued,  // ring owns the slot
    kShed,      // shed counted; caller still owns (and releases) the slot
    kRingFull,  // only when !shed_on_full: no shed counted, caller retries
  };

  /// The tail ingest() and ingest_blocking() share: count an empty
  /// handle as shed, steer, then enqueue — shedding on a full ring, or
  /// (`blocking`) waiting for space.
  bool submit(PacketHandle&& handle, bool blocking);

  /// Pop up to `max` emitted slots from the next worker's return ring
  /// that holds any (round robin); returns the count. Caller holds
  /// returns_mutex_.
  size_t pop_returns(uint32_t* out, size_t max);
  /// The arena's reclaim hook: move a chunk of emitted slots from the
  /// return rings onto the freelist. Any thread.
  void reclaim_returns();

  /// The store the next edit goes to: staged_, first refilled from
  /// the published table if a publish emptied it.
  cookies::DescriptorStore& stage();
  /// Move the staged descriptor store into a table and publish it
  /// through tables_.
  void publish_edits();

  /// The balancer step: learn the packet's CID steering state
  /// (descriptor affinity only), then pick its worker.
  size_t steer(const net::Packet& packet);

  /// Shed-ledger enqueue of a raw slot. `shed_on_full` selects whether
  /// a full ring is terminal (shed counted) or retryable (kRingFull,
  /// nothing counted — the blocking path's packet is one attempt, not
  /// one per retry).
  EnqueueResult try_enqueue(size_t worker, uint32_t slot,
                            bool shed_on_full);

  void worker_main(size_t index);

  // Members the workers read come first; the state only the ingest
  // thread writes, per packet, comes last, away from them.
  const util::Clock& clock_;
  Config config_;
  PacketArena arena_;
  /// Declared before workers_, so they outlive the workers' readers.
  controlplane::TablePublisher tables_;
  /// Edits not yet published, over a copy of the published table;
  /// empty while no edit is pending, so a plane holds each descriptor
  /// once.
  cookies::DescriptorStore staged_;
  /// The publisher the workers read: tables_ unless one is bound.
  controlplane::TablePublisher* publisher_ = &tables_;
  const fault::Injector* injector_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<MpscRing<VerdictRecord>> verdicts_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  /// Producer-side alloc stash (single producer thread).
  PacketArena::Cache cache_;
  /// The worker whose return ring pop_returns() tries first.
  size_t next_return_ = 0;
  /// Held by whoever pops the return rings: make_packet()'s refill,
  /// reclaim_returns() (on a try_alloc() thread) and stop()'s sweep.
  /// The first two hold it for at most a chunk.
  std::mutex returns_mutex_;
  /// staged_ holds edits the workers cannot see yet (and, with them,
  /// the rest of the published table).
  bool edits_pending_ = false;
  /// CID -> steering-key state for the encrypted transport, learned on
  /// the ingest path (handshakes bind the cookie id, rotation markers
  /// alias fresh CIDs). Producer thread only, like the stash: the one
  /// ingest thread is the only mutator.
  quic::CidAliasTable aliases_;
  /// Exports aliases_ as nnn_quic_*; declared after it, so it
  /// deregisters first.
  telemetry::Registration aliases_registration_;
};

}  // namespace nnn::runtime
