// Multi-threaded cookie-middlebox worker pool (§4.6 scale-out, for
// real this time) — zero-copy edition.
//
// "We can use multiple cores instead of one, and similarly add more
// than one middle-boxes to scale-out the deployment." This pool is the
// thread and ring layer under runtime::Dataplane (the balancer): N
// worker threads, each owning a complete shard (its own CookieVerifier
// — descriptor table + replay caches — and its own Middlebox with flow
// table), fed through one SPSC ring per worker in the
// run-to-completion style of DPDK pipelines.
// Because a worker's verifier and replay cache are touched by exactly
// one thread, the §4.2 use-once check needs no locks; cross-worker
// soundness is the steering's job (descriptor affinity, §4.6).
//
// Since the arena rework the rings carry 4-byte PacketArena slot
// indices, not moved net::Packet structs: packets are built in place
// in the pool's arena (PacketGenerator::fill_packet, wire decode) and
// the worker verifies/classifies/QoS-marks/emits the same bytes — zero
// payload copies between ingest and emit. Each burst is run to
// completion: pop handles -> pin epoch table -> batch verify/classify
// -> mark -> emit (release slots), no intermediate queues.
//
// Threading contract (v2 — the Dataplane facade is the intended front
// end; see runtime/dataplane.h):
//   - submit_handle(worker, handle) — ONE producer thread only (the
//     facade's ingest thread);
//   - arena().try_alloc() / PacketHandle release — any thread (the
//     freelist is lock-free MPMC); but building a packet in a slot and
//     submitting it must happen on the producer thread;
//   - control plane (add_descriptor / revoke / middlebox accessors) —
//     only while the pool is quiescent: before start(), or after
//     drain()/stop() returns;
//   - snapshot()/total_* — any thread, any time (atomics only);
//   - the injected Clock must be safe to read concurrently
//     (SystemClock is; a ManualClock must not be advanced while
//     workers run).
//
// Lifecycle: start() spawns the threads; drain() blocks until every
// submitted packet has been processed (quiescence = per-worker
// processed == submitted, with acquire/release pairing so the caller
// may then read non-atomic state); stop() lets workers finish what is
// already in their rings, then joins them and reclaims anything a
// fault-paused worker left behind into the shed ledger — so the books
// balance deterministically (attempts == processed + shed) whether or
// not drain() was called first, and every arena slot that entered a
// ring is back on the freelist when stop() returns
// (arena().outstanding() == 0 if the producer holds no handles).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "controlplane/epoch.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
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

class WorkerPool {
 public:
  struct Config {
    size_t workers = 1;
    /// Per-worker input ring capacity (rounded up to a power of two).
    size_t ring_capacity = 1024;
    /// Burst size for worker dequeue; ~32 amortizes ring overhead
    /// without hurting latency.
    size_t batch_size = 32;
    /// Capacity of the shared verdict ring; 0 disables collection.
    size_t verdict_capacity = 0;
    /// Packet-arena slots backing the rings. 0 = auto: enough for
    /// every ring to be full plus per-thread caches and a producer
    /// burst in flight.
    size_t arena_slots = 0;
    dataplane::Middlebox::Config middlebox{};
  };

  /// `clock` and `registry` must outlive the pool. The registry is
  /// read concurrently by all workers and must not be mutated while
  /// the pool runs.
  WorkerPool(const util::Clock& clock, dataplane::ServiceRegistry& registry,
             Config config);
  ~WorkerPool();  // stops and joins if still running

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The slab pool the rings index into. Producers build packets in
  /// slots allocated here; workers release the slots at emit.
  PacketArena& arena() { return arena_; }
  const PacketArena& arena() const { return arena_; }

  /// Install a descriptor into every worker's verifier (control-plane
  /// state is replicated; replay caches are not — see §4.6). Quiescent
  /// pool only. Ignored once a table publisher is bound — descriptor
  /// state then flows exclusively through the sync channel.
  void add_descriptor(const cookies::CookieDescriptor& descriptor);
  /// Revoke on every worker. Quiescent pool only; ignored once a table
  /// publisher is bound (see add_descriptor).
  void revoke(cookies::CookieId id);

  /// Bind the pool to a control-plane table publisher. Must be called
  /// before start(); the publisher must outlive the pool. Each worker
  /// registers an epoch reader and thereafter verifies every burst
  /// against the publisher's current table (re-acquired per burst — a
  /// swap costs the worker two uncontended atomic ops, never a lock),
  /// parking at idle and exit so retired tables reclaim promptly.
  void bind_table_publisher(controlplane::TablePublisher& publisher);

  /// Hook the pool into a fault injector (PR 5): admission consults
  /// reject_admission() and workers consult paused(). Quiescent pool
  /// only (before start()); the injector must outlive the pool. Null
  /// detaches. Workers pass their index as the injector's worker id.
  void set_fault_injector(const fault::Injector* injector);

  void start();
  /// Block until all submitted packets are processed. Callers must
  /// have stopped submitting; concurrent submit makes "drained" a
  /// moving target.
  void drain();
  /// Drain what is already in the rings, then join the threads.
  /// Idempotent.
  void stop();

  bool running() const { return running_; }
  size_t worker_count() const { return workers_.size(); }
  size_t ring_capacity(size_t worker) const;

  /// Enqueue an arena-resident packet for `worker` — the zero-copy
  /// ingest path (Dataplane::ingest steers and calls this). Single
  /// producer thread. Returns false when the packet was SHED — ring
  /// full, injected queue pressure, or the pool is stopping — and
  /// counts it in the worker's shed ledger; the slot is released back
  /// to the arena either way (on success, by the worker at emit).
  /// Shedding is the overload valve with the paper's fail-open
  /// semantics: the caller forwards the packet unverified (best-effort
  /// band), it never drops it, and it never blocks the wire path.
  bool submit_handle(size_t worker, PacketHandle&& handle);

  /// Closed-loop variant of submit_handle: on a full ring, waits
  /// (yielding) for space instead of shedding — the caller keeps the
  /// slot across retries, so nothing is recopied. Still sheds (and
  /// returns false) for an empty handle, a stopping pool, or an
  /// injector rejection. Single producer thread.
  bool submit_handle_blocking(size_t worker, PacketHandle&& handle);

  /// Consistent counters, safe while running.
  RuntimeSnapshot snapshot() const;
  uint64_t total_verified() const;
  uint64_t total_replays_detected() const;

  /// Drain collected verdicts (single consumer). Returns how many were
  /// appended to `out`. No-op (0) unless verdict_capacity > 0.
  size_t drain_verdicts(std::vector<VerdictRecord>& out);

  /// Quiescent pool only (see threading contract).
  const dataplane::Middlebox& middlebox(size_t worker) const;
  const cookies::CookieVerifier& verifier(size_t worker) const;

 private:
  struct Worker;

  enum class EnqueueResult : uint8_t {
    kEnqueued,  // ring owns the slot
    kShed,      // shed counted; caller still owns (and releases) the slot
    kRingFull,  // only when !shed_on_full: no shed counted, caller retries
  };

  /// Shed-ledger enqueue of a raw slot. `shed_on_full` selects whether
  /// a full ring is terminal (shed counted) or retryable (kRingFull,
  /// nothing counted — the blocking path's packet is one attempt, not
  /// one per retry).
  EnqueueResult try_enqueue(size_t worker, uint32_t slot,
                            bool shed_on_full);

  void worker_main(size_t index);

  const util::Clock& clock_;
  dataplane::ServiceRegistry& registry_;
  Config config_;
  PacketArena arena_;
  controlplane::TablePublisher* publisher_ = nullptr;
  const fault::Injector* injector_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<MpscRing<VerdictRecord>> verdicts_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace nnn::runtime
