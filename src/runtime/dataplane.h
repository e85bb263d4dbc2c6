// Dataplane: the zero-copy ingestion facade (§4.6 deployment, PR 8
// API redesign).
//
// Before this facade, callers chose a worker themselves —
// `pool.submit(worker, std::move(packet))` — which spread the §4.6
// correctness argument ("all cookies from a specific descriptor always
// go through the same middle-box") across every call site, and moved
// a ~200-byte Packet struct per hop. The redesigned contract is one
// verb with the steering inside:
//
//     runtime::Dataplane plane(clock, registry, config);
//     plane.start();
//     auto h = plane.make_packet();       // arena slot, recycled
//     if (h) { build *h in place; plane.ingest(std::move(h)); }
//     plane.drain();  plane.stop();
//
// ingest() demuxes by cookie identity: a cookie-bearing packet is
// pinned to worker steer_shard(cookie_id) — the cheap no-HMAC peek +
// the shared steering hash — so each descriptor's replay window lives
// on exactly one worker and the use-once check stays locally
// verifiable (the paper's double-spend fix). Cookie-less traffic
// spreads by five-tuple hash, preserving load balance where uniqueness
// does not matter. DispatchPolicy::kFlowHash turns the peek off for
// A/B runs (tests assert the double-spend hole it opens).
//
// Failure semantics are fail-open at every edge, matching the paper:
// arena exhausted -> make_packet() returns an empty handle and
// ingest() of it counts a shed; worker ring full or pool stopping ->
// shed; in every case the slot is back on the freelist when ingest()
// returns false and the wire path never blocks. The pool's ledger
// (attempts == processed + shed) covers every handle passed in.
//
// This facade is the only §4.6 balancer in the tree: it alone owns the
// CID steering state and calls pick_shard(), so the double-spend
// argument lives in one place.
//
// Threading: make_packet()/ingest()/ingest_blocking() are single
// -producer (one ingest thread); control-plane calls follow
// WorkerPool's quiescence contract; snapshots are safe any time.
#pragma once

#include <cstdint>

#include "dataplane/sharding.h"
#include "runtime/arena.h"
#include "runtime/worker_pool.h"

namespace nnn::runtime {

class Dataplane {
 public:
  struct Config {
    WorkerPool::Config pool{};
    dataplane::DispatchPolicy policy =
        dataplane::DispatchPolicy::kDescriptorAffinity;
  };

  /// `clock` and `registry` must outlive the dataplane (they back the
  /// owned WorkerPool).
  Dataplane(const util::Clock& clock, dataplane::ServiceRegistry& registry,
            Config config);

  Dataplane(const Dataplane&) = delete;
  Dataplane& operator=(const Dataplane&) = delete;

  /// Allocate a recycled packet slot to build the next packet in
  /// (payload capacity is reused across occupants; cookie/flag fields
  /// are cleared). Empty handle when the arena is exhausted — pass it
  /// to ingest() anyway if you want the shed counted, or drop it.
  /// Producer thread only (slots come from a thread-local stash).
  PacketHandle make_packet();

  /// Steer by cookie identity and enqueue. Returns false when the
  /// packet was shed (fail-open: forward it unverified); the slot is
  /// back on the freelist either way. Producer thread only.
  bool ingest(PacketHandle&& handle);

  /// Closed-loop variant: waits (yielding) for ring space instead of
  /// shedding — for benches and tests that need loss-free delivery.
  /// An empty handle is still counted as shed (nothing to wait for).
  void ingest_blocking(PacketHandle&& handle);

  /// Which worker ingest() would steer this packet to. Pure query: it
  /// consults the CID steering state but never learns from the packet
  /// (ingest() does the learning), so repeated calls agree.
  size_t route(const net::Packet& packet) const {
    return dataplane::pick_shard(packet, config_.policy,
                                 pool_.worker_count(), aliases_);
  }

  // ---- lifecycle (see WorkerPool for the contracts) ----
  void start() { pool_.start(); }
  void drain() { pool_.drain(); }
  void stop();
  bool running() const { return pool_.running(); }

  // ---- control plane (quiescent only) ----
  void add_descriptor(const cookies::CookieDescriptor& descriptor) {
    pool_.add_descriptor(descriptor);
  }
  void revoke(cookies::CookieId id) { pool_.revoke(id); }
  void bind_table_publisher(controlplane::TablePublisher& publisher) {
    pool_.bind_table_publisher(publisher);
  }
  void set_fault_injector(const fault::Injector* injector) {
    pool_.set_fault_injector(injector);
  }

  // ---- observability ----
  RuntimeSnapshot snapshot() const { return pool_.snapshot(); }
  uint64_t total_verified() const { return pool_.total_verified(); }
  uint64_t total_replays_detected() const {
    return pool_.total_replays_detected();
  }
  size_t drain_verdicts(std::vector<VerdictRecord>& out) {
    return pool_.drain_verdicts(out);
  }
  const dataplane::Middlebox& middlebox(size_t worker) const {
    return pool_.middlebox(worker);
  }
  const cookies::CookieVerifier& verifier(size_t worker) const {
    return pool_.verifier(worker);
  }
  dataplane::DispatchPolicy policy() const { return config_.policy; }
  size_t worker_count() const { return pool_.worker_count(); }
  PacketArena& arena() { return pool_.arena(); }
  const PacketArena& arena() const { return pool_.arena(); }

 private:
  /// The balancer step ingest() and ingest_blocking() share: learn the
  /// packet's CID steering state (descriptor affinity only), then pick
  /// its worker.
  size_t steer(const net::Packet& packet);

  Config config_;
  WorkerPool pool_;
  /// Producer-side alloc stash (single producer thread).
  PacketArena::Cache cache_;
  /// CID -> steering-key state for the encrypted transport, learned on
  /// the ingest path (handshakes bind the cookie id, rotation markers
  /// alias fresh CIDs). Producer thread only, like the stash: the one
  /// ingest thread is the only mutator.
  quic::CidAliasTable aliases_;
};

}  // namespace nnn::runtime
