// Deterministic fault schedules (PR 5 tentpole).
//
// The paper's deployment argument (§4: 161 OnHub homes, a middlebox
// that "behaves as if the cookie was not there" on any failure) is a
// claim about behavior under faults — and claims about faults are only
// testable when the faults are reproducible. A FaultPlan is a fixed,
// seeded schedule of fault events over simulated time: which link
// partitions when, how long the sync server goes dark, how far a clock
// skews past the network coherency time, when a queue-pressure burst
// hits which worker. tests/test_chaos.cpp generates twenty-plus plans
// from consecutive seeds and asserts the same three invariants under
// every one (fail-open, replay safety, bounded-staleness recovery);
// any failure reproduces from its seed alone.
//
// The plan is pure data. The Injector (injector.h) evaluates it
// against the clock at each hook point; sim::Link, runtime::Dataplane,
// SyncServer, and CookieServer carry the hooks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/labels.h"
#include "util/clock.h"

namespace nnn::fault {

enum class FaultKind : uint8_t {
  /// Target link delivers nothing for the duration.
  kPartition = 0,
  /// Target link drops each packet with probability `magnitude`.
  kLossSpike,
  /// Target worker stops consuming its ring (a wedged or descheduled
  /// process); submissions keep arriving.
  kPause,
  /// The sync server answers nothing; the cookie server refuses
  /// acquire() with kUnavailable.
  kSyncOutage,
  /// The verifying middlebox's clock reads skew microseconds off the
  /// true time — sized by plans to exceed the NCT window.
  kClockSkew,
  /// Admission to the target worker's queue rejects each submit with
  /// probability `magnitude` (an overload burst).
  kQueuePressure,
  /// The netio listener stops calling accept(); SYNs pile up in the
  /// kernel backlog (a wedged accept thread / SYN-flood mitigation).
  kAcceptStall,
  /// Each established connection's next io is aborted with probability
  /// `magnitude` (mid-stream RST).
  kConnReset,
  /// The peer vanishes without FIN: inbound bytes from it are
  /// blackholed, so only the idle timeout can reclaim the connection.
  kPeerHalfOpen,
  /// A misconfigured (or malicious) middlebox degrades NON-cookie
  /// traffic: the target link serializes packets outside band 0 at
  /// `magnitude` x the configured rate (0 < magnitude < 1). Tables and
  /// descriptor state look clean the whole time — only the observed
  /// FCT/throughput distributions shift, which is exactly what the
  /// statistical auditor (src/audit) exists to catch.
  kThrottleNonCookie,
  /// A NAT rebinding / connection-migration burst: while the event is
  /// active, each QUIC connection (polled via Injector::nat_rebind
  /// with its connection id) migrates to a fresh source endpoint with
  /// probability `magnitude` — at most once per connection per event,
  /// like kConnReset. The CIDs keep flowing on the new 5-tuple; flow
  /// state keyed on the tuple dies, flow state keyed on the CID
  /// (net::FlowKey::kConnectionId) survives — which is the whole
  /// point of the PR 10 encrypted-transport scenario. Routing the
  /// workload's seeded migrations through the injector lets chaos
  /// schedules compose migration with loss spikes and sync outages.
  kNatRebind,
};
// kFaultKindCount and to_string(FaultKind) live in telemetry/labels.h.

/// The pre-netio fault kinds. FaultPlan::random draws from these by
/// default so every chaos seed shipped before the socket faults keeps
/// producing byte-identical schedules; netio chaos opts into the full
/// set via Spec::kinds.
inline constexpr size_t kCoreFaultKinds = 6;

/// Core + socket kinds (everything before kThrottleNonCookie). The
/// netio chaos suite pins Spec::kinds to this so its shipped seeds
/// keep producing byte-identical schedules now that the audit fault
/// extends the enum; audit chaos opts into kAuditFaultKinds.
inline constexpr size_t kSocketFaultKinds = 9;

/// Through kThrottleNonCookie. The audit chaos seeds pinned this
/// range before kNatRebind extended the enum; quic chaos opts into
/// kFaultKindCount.
inline constexpr size_t kAuditFaultKinds = 10;

/// Applies to every link/worker rather than one target.
inline constexpr uint32_t kAllTargets = 0xffffffffu;

struct FaultEvent {
  FaultKind kind = FaultKind::kPartition;
  util::Timestamp start = 0;
  util::Timestamp duration = 0;
  /// Probability knob for kLossSpike / kQueuePressure; unused
  /// otherwise.
  double magnitude = 1.0;
  /// Signed clock offset for kClockSkew; unused otherwise.
  util::Timestamp skew = 0;
  /// Link or worker index, or kAllTargets.
  uint32_t target = kAllTargets;

  util::Timestamp end() const { return start + duration; }
  bool active_at(util::Timestamp now) const {
    return now >= start && now < end();
  }
  bool targets(uint32_t id) const {
    return target == kAllTargets || target == id;
  }
};

class FaultPlan {
 public:
  /// Knobs for random(): event count and the ranges each event's
  /// parameters are drawn from.
  struct Spec {
    /// Events start in [0, horizon).
    util::Timestamp horizon = 10 * util::kSecond;
    size_t events = 6;
    util::Timestamp min_duration = 100 * util::kMillisecond;
    util::Timestamp max_duration = 2 * util::kSecond;
    /// Upper bound on loss/rejection probability draws.
    double max_magnitude = 1.0;
    /// Skew draws land in [-max_skew, max_skew]. Default exceeds the
    /// 5 s network coherency time on purpose: a skew the NCT window
    /// absorbs is not a fault worth scheduling.
    util::Timestamp max_skew = 8 * util::kSecond;
    /// Targets are drawn from [0, link_targets) / [0, worker_targets),
    /// with a 1-in-4 chance of kAllTargets.
    uint32_t link_targets = 2;
    uint32_t worker_targets = 2;
    /// How many FaultKind values the schedule draws from, counting
    /// from 0. The default excludes the socket kinds (see
    /// kCoreFaultKinds); set to kFaultKindCount for netio chaos.
    size_t kinds = kCoreFaultKinds;
  };

  FaultPlan() = default;

  /// The canonical constructor: a seeded schedule. Same seed + spec =>
  /// same plan, on every platform (util::Rng is mt19937_64).
  static FaultPlan random(uint64_t seed, const Spec& spec);
  static FaultPlan random(uint64_t seed) { return random(seed, Spec{}); }

  void add(FaultEvent event) { events_.push_back(event); }
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// First instant with every event over — the chaos tests' "now prove
  /// recovery" marker.
  util::Timestamp quiet_after() const;

  /// "kind@[start,end)ms -> target" per event; for test failure
  /// messages, so a red seed is diagnosable without re-running it.
  std::string summary() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace nnn::fault
