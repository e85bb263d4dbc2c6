// Per-worker runtime counters with consistent snapshots.
//
// Once the dataplane is actually threaded, `MiddleboxStats` (plain
// uint64 fields mutated on the worker's hot path) can no longer be
// read from another thread — that is a data race. The runtime instead
// keeps one cache-line-aligned block of telemetry cells per worker
// (written only by that worker, so the atomics never contend) and
// exposes:
//   - snapshot():   safe at any time, reads only the atomics;
//   - the worker's middlebox/verifier objects: safe only when the plane
//     is quiescent (after drain()/stop(), which establish the needed
//     happens-before edge through the `processed` counter).
//
// The cells are telemetry::Counter instruments — the single-writer
// relaxed-store discipline this block pioneered is now the telemetry
// module's Counter contract, so the plane exports straight into the
// process-wide registry (nnn_pool_*{worker="i"}) with no extra
// bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/spsc_ring.h"  // kCacheLineSize
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/view.h"

namespace nnn::runtime {

/// One block per worker; the owning worker is the only writer, so
/// every store can be relaxed. `processed` is the exception: it is
/// stored with release order after each batch (Counter::inc_release)
/// and read with acquire by drain(), which is what makes the
/// non-atomic middlebox state safe to read once the plane is quiescent.
///
/// Per-VerifyStatus outcomes live in `statuses` — one cell per enum
/// value — replacing the old hand-mirrored `verified`/`replayed`
/// fields that silently dropped the other six outcomes.
struct alignas(kCacheLineSize) WorkerCounters {
  telemetry::Counter packets;
  telemetry::Counter bytes;
  telemetry::Counter cookie_packets;  // carried a cookie we checked
  telemetry::StatusCounters<cookies::VerifyStatus,
                            cookies::kVerifyStatusCount>
      statuses;                       // per-outcome counts for cookie packets
  telemetry::Counter mapped;          // verdicts with mapped_now
  telemetry::Counter batches;         // ring bursts dequeued
  telemetry::Counter busy_micros;     // thread-CPU time processing
  telemetry::Counter processed;       // release-stored per batch
  telemetry::Counter verdicts_dropped;  // verdict ring was full
  /// Packets refused admission (ring full, injected queue pressure, or
  /// plane stopping) plus ring leftovers reclaimed by stop(). TWO
  /// writers — the producer thread and stop() — so unlike every other
  /// cell in this block it is written with the shared (fetch_add)
  /// path. The load-shedding ledger: submit attempts == processed +
  /// shed once the plane has stopped.
  telemetry::Counter shed;
  telemetry::Histogram batch_nanos;   // wall nanos per ring burst

  /// Emit this block's cells under `base` labels (worker="i"):
  /// nnn_pool_*_total, nnn_pool_busy_micros, nnn_pool_verify_total
  /// {status=...} and the nnn_pool_batch_nanos histogram.
  void collect(telemetry::SampleBuilder& builder,
               const telemetry::LabelSet& base) const;
};

/// Plain-value copy of one worker's counters.
struct WorkerSnapshot {
  uint64_t packets = 0;
  uint64_t bytes = 0;
  uint64_t cookie_packets = 0;
  uint64_t verified = 0;   // statuses[kOk]
  uint64_t replayed = 0;   // statuses[kReplayed]
  uint64_t malformed = 0;  // statuses[kMalformed]
  uint64_t mapped = 0;
  uint64_t batches = 0;
  uint64_t busy_micros = 0;
  uint64_t processed = 0;
  uint64_t verdicts_dropped = 0;
  uint64_t shed = 0;

  WorkerSnapshot& operator+=(const WorkerSnapshot& other);
  /// Mean packets per ring burst — how well batching amortizes.
  double avg_batch() const;
};

/// Snapshot of the whole plane, taken worker by worker.
struct RuntimeSnapshot {
  std::vector<WorkerSnapshot> workers;

  WorkerSnapshot totals() const;
  /// Busiest worker's CPU time — the parallel critical path. With one
  /// dedicated core per worker, elapsed time ≈ max busy time, so
  /// packets/max_busy is the throughput the plane sustains when the
  /// hardware actually provides the cores (robust to benchmarking on
  /// fewer physical cores than workers).
  uint64_t max_busy_micros() const;

  std::string summary() const;
};

WorkerSnapshot snapshot_of(const WorkerCounters& counters);

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID; falls back to a monotonic clock where
/// unavailable). Workers sample this around each batch.
uint64_t thread_cpu_micros();

}  // namespace nnn::runtime
