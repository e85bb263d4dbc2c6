// Per-worker runtime counters: the facts only the runtime sees.
//
// Each shard counts what it observes in its own telemetry cells: the
// middlebox its packets, bytes and task classes (nnn_middlebox_*), the
// verifier its outcomes (nnn_verify_total{status}). Those cells are
// relaxed atomics, readable from any thread, so the runtime does not
// re-count them. This block keeps what no shard can see: ring bursts,
// worker CPU time, the quiescence ledger, verdict records dropped on a
// full verdict ring, sheds, and how often the worker parked idle. One cache-line-aligned block per
// worker, exported under {worker="i"} as nnn_pool_*.
//
// Reading the plane:
//   - snapshot() and any component's telemetry cells: safe at any time;
//   - the rest of a worker's middlebox/verifier state (flow table,
//     replay cache, hot tier): only when the plane is quiescent (after
//     drain()/stop(), which establish the needed happens-before edge
//     through the `processed` counter).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/spsc_ring.h"  // kCacheLineSize
#include "telemetry/metrics.h"

namespace nnn::runtime {

/// One block per worker; the owning worker is the only writer, so
/// every store can be relaxed. `processed` is the exception: it is
/// stored with release order after each batch (Counter::inc_release)
/// and read with acquire by drain(), which is what makes the
/// non-atomic middlebox state safe to read once the plane is quiescent.
struct alignas(kCacheLineSize) WorkerCounters {
  telemetry::Counter batches;         // ring bursts dequeued
  telemetry::Counter busy_micros;     // thread-CPU time processing
  telemetry::Counter processed;       // packets, release-stored per batch
  telemetry::Counter verdicts_dropped;  // verdict ring was full
  /// Packets refused admission (ring full, injected queue pressure, or
  /// plane stopping) plus ring leftovers reclaimed by stop(). TWO
  /// writers — the producer thread and stop() — so unlike every other
  /// cell in this block it is written with the shared (fetch_add)
  /// path. The load-shedding ledger: submit attempts == processed +
  /// shed once the plane has stopped.
  telemetry::Counter shed;
  /// Times the worker blocked on its doorbell after an idle poll budget
  /// ran out; ingest() or stop() woke it each time.
  telemetry::Counter parks;
  telemetry::Histogram batch_nanos;   // wall nanos per ring burst

  /// Emit this block's cells under `base` labels (worker="i"):
  /// nnn_pool_*_total, nnn_pool_busy_micros and the
  /// nnn_pool_batch_nanos histogram.
  void collect(telemetry::SampleBuilder& builder,
               const telemetry::LabelSet& base) const;
};

/// Plain-value copy of one worker's counters. `packets` and
/// `processed` are both read from the one `processed` cell; callers
/// use either name.
struct WorkerSnapshot {
  uint64_t packets = 0;
  uint64_t batches = 0;
  uint64_t busy_micros = 0;
  uint64_t processed = 0;
  uint64_t verdicts_dropped = 0;
  uint64_t shed = 0;
  uint64_t parks = 0;

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
};

WorkerSnapshot snapshot_of(const WorkerCounters& counters);

/// CPU time consumed by the calling thread, in microseconds
/// (CLOCK_THREAD_CPUTIME_ID; falls back to a monotonic clock where
/// unavailable). Workers sample this around each batch.
uint64_t thread_cpu_micros();

}  // namespace nnn::runtime
