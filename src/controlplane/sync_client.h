// Middlebox endpoint of the snapshot/delta sync protocol.
//
// The client owns the pull loop: poll the server at a steady interval,
// apply whatever comes back (snapshot -> mirror reset, delta -> mirror
// apply, heartbeat -> freshness only), and publish a rebuilt table
// through the TablePublisher whenever the mirror changed. Transport is
// a callback (send one request datagram); responses come back through
// on_datagram(). The loop is driven by tick(now) — callers (sim event
// loops, a thread, an example's main) decide the cadence, the client
// just reports when it next wants to run via next_wakeup().
//
// Failure behaviour, per the paper's fail-open stance:
//   - a request with no response within response_timeout counts as a
//     retry; the timeout then grows exponentially with +/-jitter so a
//     recovering server is not met by a synchronized client stampede;
//   - a single success during an outage DECAYS the backoff one level
//     instead of resetting it — a flapping link that lets one response
//     through must not restart the client at full poll rate against a
//     server that is still drowning (PR 5 regression fix);
//   - repeated failures trip a circuit breaker (kOpen). An open
//     breaker sends nothing until the current backoff elapses, then
//     sends exactly one probe (kHalfOpen); the breaker closes only
//     after breaker_success_threshold consecutive successes;
//   - while the channel is down the last published table keeps
//     enforcing (stale-while-revalidate) — dropping to "no table"
//     would turn a control-plane blip into a dataplane outage;
//   - past stale_grace without a successful exchange the client flags
//     itself stale (nnn_controlplane_stale gauge). It STILL keeps the
//     last table — fail-open stays the dataplane's policy — but
//     monitoring (regulator_audit) can now see that this middlebox may
//     be enforcing revoked descriptors;
//   - a restarting middlebox can restore() the last exported table
//     checkpoint instead of cold-starting with no table at all, as
//     long as the checkpoint is within restore_budget (recovery stays
//     inside the stale-while-revalidate contract).
//
// Degraded operation is visible as nnn_degraded{reason=...} — one
// gauge per reason (stale / breaker-open / restored-table), so an
// operator can tell "enforcing on old state" apart from "cannot reach
// the server at all".
//
// Threading: single-threaded. tick()/on_datagram() run on one control
// thread; only the publisher hand-off crosses threads (and that is the
// epoch machinery's job).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "controlplane/epoch.h"
#include "controlplane/messages.h"
#include "controlplane/table_mirror.h"
#include "telemetry/metrics.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/rng.h"

namespace nnn::controlplane {

/// Circuit-breaker state for the sync channel. Closed is healthy;
/// open stops polling until the backoff elapses; half-open is the
/// single in-flight probe deciding between the two.
enum class BreakerState : uint8_t {
  kClosed = 0,
  kOpen = 1,
  kHalfOpen = 2,
};

/// A checkpoint of the applied table, for cold-start recovery. The
/// timestamp lets restore() enforce the staleness budget.
struct SavedTable {
  uint64_t version = 0;
  util::Timestamp saved_at = 0;
  std::vector<cookies::CookieDescriptor> live;
  std::vector<cookies::CookieId> revoked;
};

class SyncClient {
 public:
  using SendFn = std::function<void(util::Bytes)>;

  struct Config {
    uint64_t client_id = 0;
    /// Steady-state poll cadence.
    util::Timestamp poll_interval = 100 * util::kMillisecond;
    /// A request unanswered this long is a loss; retry with backoff.
    util::Timestamp response_timeout = 250 * util::kMillisecond;
    /// First retry backoff; doubles per consecutive failure.
    util::Timestamp backoff_base = 250 * util::kMillisecond;
    util::Timestamp backoff_max = 5 * util::kSecond;
    /// +/- fraction applied to poll and backoff delays.
    double jitter = 0.2;
    /// No successful exchange for this long => stale (see header).
    util::Timestamp stale_grace = 10 * util::kSecond;
    /// Consecutive timeouts that trip the breaker open.
    uint32_t breaker_failure_threshold = 4;
    /// Consecutive successes (probe included) that close it again.
    uint32_t breaker_success_threshold = 3;
    /// Oldest checkpoint restore() accepts (see SavedTable).
    util::Timestamp restore_budget = 30 * util::kSecond;
    uint64_t rng_seed = 0x6e636f6f6b6965;  // distinct per client in prod
  };

  SyncClient(const util::Clock& clock, TablePublisher& publisher,
             Config config, SendFn send);
  SyncClient(const SyncClient&) = delete;
  SyncClient& operator=(const SyncClient&) = delete;

  /// Send the first poll immediately.
  void start();

  /// Feed one response datagram from the transport.
  void on_datagram(util::BytesView datagram);

  /// Drive timers: send the next poll when due, count a timeout when a
  /// request went unanswered, refresh the stale flag.
  void tick();

  /// When tick() next has work (absolute time). The driver may call
  /// tick() earlier or later; the client only compares against now().
  util::Timestamp next_wakeup() const;

  /// Checkpoint the applied table (persist across a process restart).
  SavedTable export_table() const;

  /// Seed the mirror from a checkpoint and publish it immediately, so
  /// workers verify against last-known-good state while the first sync
  /// is still in flight. Rejects (returns false, publishes nothing)
  /// when the checkpoint is older than restore_budget — enforcing
  /// arbitrarily old revocation state is worse than none. Call before
  /// start().
  bool restore(const SavedTable& saved);

  uint64_t applied_version() const { return mirror_.version(); }
  /// Latest version the server reported (>= applied until caught up).
  uint64_t server_version() const { return server_version_; }
  bool stale() const { return stale_; }
  uint64_t retries() const { return retries_.value(); }
  BreakerState breaker_state() const { return breaker_; }
  uint32_t consecutive_failures() const { return consecutive_failures_; }
  /// True from a successful restore() until the first live exchange.
  bool running_on_restored_table() const { return restored_active_; }
  /// Most recent datagram decode failure, if any (typed; also tallied
  /// into nnn_errors_total by the decoder).
  const std::optional<Error>& last_error() const { return last_error_; }

 private:
  void send_request(util::Timestamp now);
  void on_success(util::Timestamp now);
  void on_failure(util::Timestamp now);
  void publish();
  util::Timestamp current_backoff() const;
  util::Timestamp with_jitter(util::Timestamp base);
  void collect(telemetry::SampleBuilder& builder) const;

  const util::Clock& clock_;
  TablePublisher& publisher_;
  const Config config_;
  SendFn send_;
  TableMirror mirror_;
  util::Rng rng_;

  bool started_ = false;
  bool awaiting_response_ = false;
  uint64_t server_version_ = 0;
  uint32_t consecutive_failures_ = 0;
  uint32_t success_streak_ = 0;
  BreakerState breaker_ = BreakerState::kClosed;
  bool stale_ = false;
  bool restored_active_ = false;
  std::optional<Error> last_error_;
  util::Timestamp last_request_ = 0;
  util::Timestamp current_timeout_ = 0;
  util::Timestamp next_poll_ = 0;
  util::Timestamp last_success_ = 0;

  telemetry::Gauge version_lag_;
  telemetry::Gauge applied_gauge_;
  telemetry::Gauge stale_gauge_;
  telemetry::Gauge breaker_gauge_;
  telemetry::Gauge restored_gauge_;
  telemetry::Counter retries_;
  telemetry::Counter snapshots_applied_;
  telemetry::Counter deltas_applied_;
  telemetry::Counter breaker_opens_;
  telemetry::Counter restores_;
  telemetry::Histogram sync_rtt_micros_;
  std::string client_label_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::controlplane
