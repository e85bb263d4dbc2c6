#include "runtime/stats.h"

#include <ctime>

#if !defined(CLOCK_THREAD_CPUTIME_ID)
#include <chrono>
#endif

namespace nnn::runtime {

void WorkerCounters::collect(telemetry::SampleBuilder& builder,
                             const telemetry::LabelSet& base) const {
  builder.counter("nnn_pool_batches_total", "Ring bursts dequeued", base,
                  batches.value());
  builder.counter("nnn_pool_busy_micros",
                  "Worker thread-CPU time spent processing, in microseconds",
                  base, busy_micros.value());
  builder.counter("nnn_pool_processed_total",
                  "Packets fully processed (quiescence counter)", base,
                  processed.value_acquire());
  builder.counter("nnn_pool_verdicts_dropped_total",
                  "Verdict records dropped because the verdict ring was full",
                  base, verdicts_dropped.value());
  builder.counter("nnn_pool_shed_total",
                  "Packets shed at admission or reclaimed at stop "
                  "(fail-open: shed packets are forwarded unverified)",
                  base, shed.value());
  builder.counter("nnn_pool_parks_total",
                  "Times the worker blocked on its doorbell after its idle "
                  "poll budget ran out",
                  base, parks.value());
  builder.histogram("nnn_pool_batch_nanos",
                    "Wall-clock nanoseconds per worker ring burst", base,
                    batch_nanos);
}

WorkerSnapshot& WorkerSnapshot::operator+=(const WorkerSnapshot& other) {
  packets += other.packets;
  batches += other.batches;
  busy_micros += other.busy_micros;
  processed += other.processed;
  verdicts_dropped += other.verdicts_dropped;
  shed += other.shed;
  parks += other.parks;
  return *this;
}

double WorkerSnapshot::avg_batch() const {
  if (batches == 0) return 0.0;
  return static_cast<double>(packets) / static_cast<double>(batches);
}

WorkerSnapshot snapshot_of(const WorkerCounters& counters) {
  WorkerSnapshot s;
  s.processed = counters.processed.value_acquire();
  s.packets = s.processed;
  s.batches = counters.batches.value();
  s.busy_micros = counters.busy_micros.value();
  s.verdicts_dropped = counters.verdicts_dropped.value();
  s.shed = counters.shed.value();
  s.parks = counters.parks.value();
  return s;
}

WorkerSnapshot RuntimeSnapshot::totals() const {
  WorkerSnapshot total;
  for (const auto& w : workers) total += w;
  return total;
}

uint64_t RuntimeSnapshot::max_busy_micros() const {
  uint64_t max = 0;
  for (const auto& w : workers) {
    if (w.busy_micros > max) max = w.busy_micros;
  }
  return max;
}

uint64_t thread_cpu_micros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1'000;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

}  // namespace nnn::runtime
