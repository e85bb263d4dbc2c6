// The runtime half of fault injection: evaluate a FaultPlan at the
// hook points (PR 5 tentpole).
//
// Hooked components hold a `const Injector*` that defaults to null,
// and every hook site guards with a null check:
//
//     if (injector_ && injector_->drop_packet(link_id, now)) { ... }
//
// That null check IS the zero-cost-when-disabled contract: with no
// injector installed the hook is one predictable branch on a pointer
// already in a register — bench/ablation_fault holds it under 1%.
// There is no compile-time gate; chaos coverage that only exists in a
// special build is coverage the release binary never had.
//
// ## Threading
//
// arm() must happen before the hooked threads start (or while they are
// quiesced); after that the plan is immutable and every hook is safe
// from any thread. Probabilistic hooks (loss spikes, queue pressure)
// need randomness that is BOTH thread-safe and reproducible: each
// decision hashes (seed, draw counter) with SplitMix64, where the
// counter is a relaxed fetch_add. The sequence of decisions is a pure
// function of the seed and the interleaving; for a fixed schedule the
// *number* of drops/rejections concentrates tightly around
// magnitude x draws, which is what the chaos assertions consume.
// Injection counters use the shared (fetch_add) path for the same
// reason, exported as nnn_fault_injected_total{kind=...}.
#pragma once

#include <atomic>
#include <cstdint>

#include "fault/plan.h"
#include "telemetry/metrics.h"
#include "telemetry/view.h"
#include "util/clock.h"

namespace nnn::fault {

class Injector {
 public:
  /// Registers nnn_fault_* with the global registry; pinned (the
  /// collector holds `this`).
  Injector();
  explicit Injector(telemetry::Registry& registry);
  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Install a schedule. Call before the hooked threads run.
  void arm(FaultPlan plan, uint64_t seed = 0);
  /// Forget the schedule (hooks all answer "no fault").
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // --- hooks, one per fault kind ---

  /// sim::Link delivery: true = this packet dies (partition or a loss
  /// spike's Bernoulli draw).
  bool drop_packet(uint32_t link_id, util::Timestamp now) const;

  /// Dataplane worker loop: true = the worker must not consume now
  /// (wedged process). The worker re-checks each iteration; resume is
  /// the schedule's business, not the caller's.
  bool paused(uint32_t worker_id, util::Timestamp now) const;

  /// SyncServer::handle: true = swallow the request, answer nothing.
  bool sync_unavailable(util::Timestamp now) const;

  /// CookieServer::acquire: true = answer kUnavailable.
  bool acquire_unavailable(util::Timestamp now) const;

  /// Dataplane::ingest admission: true = reject this packet (the plane
  /// sheds it, counted, fail-open).
  bool reject_admission(uint32_t worker_id, util::Timestamp now) const;

  /// Offset a SkewedClock adds to the base clock's reading.
  util::Timestamp clock_skew(util::Timestamp now) const;

  // --- socket hooks (netio) ---

  /// netio::Listener accept loop: true = do not accept now; SYNs wait
  /// in the kernel backlog. Polled like paused(), so uncounted.
  bool accept_stalled(util::Timestamp now) const;

  /// Per-connection io: true = abort this connection as if the peer
  /// sent RST (counted; Bernoulli draw on the event's magnitude, at
  /// most once per connection per event — callers pass a stable
  /// conn_id so the draw sequence is reproducible across runs).
  bool reset_connection(uint64_t conn_id, util::Timestamp now) const;

  /// Per-connection read path: true = the peer is half-open; inbound
  /// bytes are blackholed and only timeouts reclaim the connection.
  /// Continuous condition, uncounted.
  bool peer_half_open(util::Timestamp now) const;

  /// sim::Link serialization of a NON-band-0 packet: the throttle
  /// factor in (0, 1) while a kThrottleNonCookie event targets this
  /// link (the packet serializes at factor x rate), or 0.0 when clean.
  /// Counted per throttled packet, like drop_packet's loss spikes.
  double throttle_non_cookie(uint32_t link_id, util::Timestamp now) const;

  /// QUIC workload migration hook: true = connection `conn_id`
  /// migrates NOW (its client endpoint rebinds to a fresh address/
  /// port; CIDs continue unchanged). Deterministic Bernoulli per
  /// (connection, event) — hash (seed, conn_id, event start), the
  /// reset_connection idiom — so the outcome is independent of poll
  /// frequency. A connection outlives its migration (unlike a reset),
  /// so the caller passes the timestamp of its previous migration and
  /// an event answers true at most once per connection: only while
  /// active AND its start is later than `last_migration`. Counted per
  /// true answer, i.e. once per (connection, event).
  bool nat_rebind(uint64_t conn_id, util::Timestamp now,
                  util::Timestamp last_migration = 0) const;

  /// Any event in flight at `now` (chaos tests gate their recovery
  /// phase on this going false).
  bool any_active(util::Timestamp now) const;

  /// Injections so far, by kind (tests reconcile against shed/drop
  /// counters elsewhere).
  uint64_t injected(FaultKind kind) const { return injected_.count(kind); }
  uint64_t total_injected() const { return injected_.total(); }

 private:
  bool active_event(FaultKind kind, uint32_t target,
                    util::Timestamp now) const;
  /// Deterministic thread-safe Bernoulli: hash (seed, counter++).
  bool draw(double p) const;
  void count(FaultKind kind) const;
  void collect(telemetry::SampleBuilder& builder) const;

  FaultPlan plan_;
  uint64_t seed_ = 0;
  std::atomic<bool> armed_{false};
  mutable std::atomic<uint64_t> draws_{0};
  mutable telemetry::StatusCounters<FaultKind, kFaultKindCount> injected_;
  telemetry::Registration registration_;  // last: deregisters first
};

/// A clock whose reading the injector may skew — what a chaos harness
/// hands to the verifying middlebox to model drift beyond the NCT
/// window. Reads the base clock, then adds the active skew (if any).
class SkewedClock final : public util::Clock {
 public:
  SkewedClock(const util::Clock& base, const Injector& injector)
      : base_(base), injector_(injector) {}

  util::Timestamp now() const override {
    const util::Timestamp t = base_.now();
    return t + injector_.clock_skew(t);
  }

 private:
  const util::Clock& base_;
  const Injector& injector_;
};

}  // namespace nnn::fault
