// Process-wide metric registry with lock-free instruments.
//
// The paper's operational case (§5–§6) is that a cookie middlebox
// serving millions of users must be *auditable*: regulators and users
// need to see what traffic actually received which service. Before
// this subsystem the repo had nine disconnected `*Stats` structs with
// incompatible shapes and no single observation point. This module is
// the one place everything reports to:
//
//   instruments  — Counter / Gauge / Histogram cells owned by the
//                  component that mutates them. Writes follow the
//                  WorkerCounters discipline proven out in runtime/:
//                  each cell has exactly ONE writer thread, so every
//                  increment is a relaxed load+store (one or two
//                  cycles, no lock prefix, no contention — the <2%
//                  budget on the 718 ns SHA-NI verify path). Readers
//                  (exporters, snapshots) do relaxed loads from any
//                  thread, which is safe for monotonic uint64 cells.
//                  ShardedCounter covers the rare genuinely
//                  multi-writer case (the process-wide log counters)
//                  with per-thread-hashed padded cells and fetch_add.
//
//   registry     — components register a *collector* callback; an
//                  exporter asks the Registry for a Snapshot, which
//                  runs every collector under the registry mutex and
//                  merges samples into named families
//                  (`nnn_verify_total{status="replayed"}`). The hot
//                  path never touches the registry or its mutex —
//                  registration happens at construction, collection
//                  on the (cold) export path. Samples from different
//                  instances that share a family and label set are
//                  summed, so four workers' verifiers roll up into one
//                  process-wide `nnn_verify_total` series while each
//                  instance keeps its own cells for per-object
//                  accessors.
//
// Naming scheme: `nnn_<component>_<what>[_total]`, labels for
// enum-like dimensions (status=, worker=, band=, level=). Counters
// end in `_total`; gauges and histograms do not. See DESIGN.md
// §"Telemetry".
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nnn::telemetry {

inline constexpr size_t kTelemetryCacheLine = 64;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// Monotonic event count. SINGLE-WRITER: inc()/set() may be called
/// from one thread at a time (the owning component's mutator thread);
/// value() is safe from any thread concurrently. This is the same
/// contract as runtime::WorkerCounters and keeps the hot path at a
/// relaxed load+store instead of a locked RMW.
class Counter {
 public:
  void inc(uint64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  /// Gauge-style decrement for cells exported as gauges (e.g. bytes
  /// currently queued in a QoS band). Same single-writer contract.
  void dec(uint64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) - n,
             std::memory_order_relaxed);
  }
  /// Release-ordered increment: publishes every prior write by the
  /// owning thread to readers that pair with value_acquire(). Used by
  /// the worker pool's `processed` quiescence counter.
  void inc_release(uint64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_release);
  }
  /// Multi-writer escape hatch (fetch_add). Correct from any thread;
  /// costs a locked RMW, so keep it off per-packet paths.
  void add_shared(uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(uint64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void reset() noexcept { set(0); }

  uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  uint64_t value_acquire() const noexcept {
    return v_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time signed value (descriptor-table size, active flows).
/// Single-writer set/add/sub, any-thread reads, like Counter.
class Gauge {
 public:
  void set(int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(int64_t n = 1) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  void sub(int64_t n = 1) noexcept { add(-n); }
  int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> v_{0};
};

/// Counter any thread may bump: per-thread-hashed, cache-line-padded
/// cells so concurrent writers (log calls from every worker plus the
/// ingest thread) almost never share a line, with fetch_add for the rare
/// collision. value() sums the cells.
class ShardedCounter {
 public:
  static constexpr size_t kShards = 8;

  void inc(uint64_t n = 1) noexcept {
    cells_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const noexcept {
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() noexcept {
    for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  static size_t shard_index() noexcept;

  struct alignas(kTelemetryCacheLine) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

/// Log-linear latency histogram (HdrHistogram-style bucketing): 8
/// linear sub-buckets per power-of-two octave, so relative bucket
/// error is bounded at ~12.5% across the whole uint64 range with a
/// fixed 496-cell table and O(1) index math (no search, no floats).
/// record() is SINGLE-WRITER like Counter; snapshots from other
/// threads are monotonic per-cell but not atomic across cells (a
/// concurrent record may appear in `count` one read before `sum` —
/// harmless for monitoring, documented for exactness).
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;  // 8
  static constexpr uint32_t kBuckets = 496;

  /// Bucket index for a value; total order preserved across buckets.
  static constexpr uint32_t bucket_index(uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<uint32_t>(v);
    const uint32_t shift =
        static_cast<uint32_t>(std::bit_width(v)) - kSubBits - 1;
    return shift * kSubBuckets + static_cast<uint32_t>(v >> shift);
  }

  /// Largest value that lands in bucket `i` (inclusive upper bound,
  /// the Prometheus `le` boundary).
  static constexpr uint64_t bucket_upper_bound(uint32_t i) noexcept {
    if (i < 2 * kSubBuckets) return i;
    const uint32_t shift = i / kSubBuckets - 1;
    return ((static_cast<uint64_t>(i % kSubBuckets) + kSubBuckets + 1)
            << shift) -
           1;
  }

  void record(uint64_t value) noexcept {
    const uint32_t i = bucket_index(value);
    buckets_[i].store(buckets_[i].load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
  }

  /// Total observations (sum over buckets, so it is always consistent
  /// with the bucket counts a concurrent reader sees).
  uint64_t count() const noexcept {
    uint64_t total = 0;
    for (const auto& bucket : buckets_) {
      total += bucket.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  uint64_t bucket_count(uint32_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Interpolated quantile estimate (q in [0, 1]; q=0.5 -> p50).
  /// Walks the cumulative bucket counts to the bucket holding the
  /// q-th observation, then interpolates linearly across that
  /// bucket's value range — the standard log-linear-histogram
  /// estimator, so the result is exact for values < 2*kSubBuckets and
  /// within the bucket's relative width (<= 1/kSubBuckets) above
  /// that. The auditor's FCT summaries (p50/p95/p99) and the golden
  /// tests in tests/test_telemetry.cpp consume this. Returns 0 on an
  /// empty histogram. Concurrent-reader safe, same caveats as
  /// count(): exact at quiescence, approximate mid-write.
  uint64_t value_at_quantile(double q) const noexcept {
    uint64_t counts[kBuckets];
    uint64_t total = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank of the target observation, 1-based; q=0 means the minimum.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(total) + 0.5));
    uint64_t seen = 0;
    for (uint32_t i = 0; i < kBuckets; ++i) {
      if (counts[i] == 0) continue;
      if (seen + counts[i] < rank) {
        seen += counts[i];
        continue;
      }
      const uint64_t hi = bucket_upper_bound(i);
      const uint64_t lo = i == 0 ? 0 : bucket_upper_bound(i - 1) + 1;
      if (hi == lo) return hi;  // single-value bucket: exact
      const double within = static_cast<double>(rank - seen) /
                            static_cast<double>(counts[i]);
      return lo + static_cast<uint64_t>(
                      static_cast<double>(hi - lo) * within + 0.5);
    }
    return bucket_upper_bound(kBuckets - 1);
  }

  void reset() noexcept {
    for (auto& bucket : buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// CLOCK_MONOTONIC in nanoseconds (what ScopedTimer feeds histograms).
uint64_t monotonic_nanos();

/// Global latency-timer switch. Counters are always on — they ARE the
/// stats now — but the two clock reads a ScopedTimer costs are
/// gateable so bench/ablation_telemetry can measure exactly what the
/// histograms add (and deployments that want the last 1% back can turn
/// them off).
bool timers_enabled();
void set_timers_enabled(bool on);

/// 1-in-N burst sampler for paths whose batches can degenerate to a
/// single packet (a closed-loop producer trickles packets, so a
/// worker's ring burst is often size 1 and a per-burst timer would cost
/// two clock reads per *packet*). Owners time every full burst — the
/// reads amortize over the batch — and ask the stride whether to also
/// time this degenerate one. Single-writer, like Counter.
class SampleStride {
 public:
  /// every_n must be a power of two.
  explicit constexpr SampleStride(uint32_t every_n) : mask_(every_n - 1) {}
  bool next() {
    const uint32_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);
    return (seq & mask_) == 0;
  }

 private:
  const uint32_t mask_;
  std::atomic<uint32_t> seq_{0};
};

/// RAII batch timer: records elapsed nanoseconds into a histogram at
/// scope exit. Construction checks timers_enabled() once (a relaxed
/// load); a disabled timer never reads the clock. Placed around
/// *batches* (verify_batch, a worker's ring burst), not individual
/// packets, so the two clock reads amortize to ~1 ns per packet at
/// batch 32. Pass `sampled = false` to skip this burst (see
/// SampleStride) — the histogram then holds a sample of bursts, not a
/// census, which is all a latency distribution needs.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist, bool sampled = true)
      : hist_(sampled && timers_enabled() ? &hist : nullptr),
        start_(hist_ ? monotonic_nanos() : 0) {}
  ~ScopedTimer() {
    if (hist_) hist_->record(monotonic_nanos() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
};

// ---------------------------------------------------------------------------
// Samples, families, snapshots
// ---------------------------------------------------------------------------

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricType t);

/// Ordered label pairs. Kept sorted by key so equal label sets from
/// different collectors merge and exposition output is deterministic.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<
           std::pair<std::string_view, std::string_view>>
               kv);

  void add(std::string_view key, std::string_view value);
  bool empty() const { return kv_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return kv_;
  }
  /// True when every pair in `subset` appears in this set.
  bool contains_all(const LabelSet& subset) const;

  friend bool operator==(const LabelSet&, const LabelSet&) = default;
  friend auto operator<=>(const LabelSet&, const LabelSet&) = default;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Materialized histogram: per-bucket (inclusive upper bound,
/// non-cumulative count) for non-empty buckets only.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct Sample {
  LabelSet labels;
  uint64_t counter_value = 0;  // kCounter
  int64_t gauge_value = 0;     // kGauge
  HistogramData histogram;     // kHistogram
};

struct Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<Sample> samples;  // sorted by labels

  const Sample* find(const LabelSet& labels) const;
};

/// Point-in-time view of every registered instrument, merged into
/// families and deterministically ordered (families by name, samples
/// by labels) — the input to both exporters and the golden tests.
struct Snapshot {
  std::vector<Family> families;

  const Family* find(std::string_view name) const;
  /// Sum of counter samples in `family` whose labels contain all of
  /// `labels` (empty = every sample). 0 when the family is absent.
  uint64_t counter_total(std::string_view name,
                         const LabelSet& labels = {}) const;
};

/// Passed to collectors during Registry::snapshot(). Collectors append
/// samples; the builder owns family bookkeeping and merge-by-labels.
class SampleBuilder {
 public:
  void counter(std::string_view family, std::string_view help,
               LabelSet labels, uint64_t value);
  void gauge(std::string_view family, std::string_view help,
             LabelSet labels, int64_t value);
  void histogram(std::string_view family, std::string_view help,
                 LabelSet labels, const Histogram& hist);

 private:
  friend class Registry;
  Family& family_for(std::string_view name, std::string_view help,
                     MetricType type);
  void merge(Family& family, Sample&& sample);

  std::map<std::string, Family, std::less<>> families_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class Registry;

/// RAII collector registration. Destroy (or release()) BEFORE the
/// cells the collector reads — in practice: declare the Registration
/// as the LAST member of the owning component, so it deregisters
/// first during destruction.
class Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept;
  Registration& operator=(Registration&& other) noexcept;
  ~Registration();

  void release();
  bool active() const { return registry_ != nullptr; }

 private:
  friend class Registry;
  Registration(Registry* registry, uint64_t id)
      : registry_(registry), id_(id) {}

  Registry* registry_ = nullptr;
  uint64_t id_ = 0;
};

class Registry {
 public:
  using Collector = std::function<void(SampleBuilder&)>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every component registers with by
  /// default. Never destroyed (components with any storage duration
  /// may deregister safely at exit). Construction installs the
  /// util::Logger collector (`nnn_log_total{level=...}`).
  static Registry& global();

  /// Register a collector; runs on every snapshot() until the returned
  /// Registration is destroyed. Collectors must not register or
  /// deregister from inside a collection (the registry mutex is held).
  [[nodiscard]] Registration add_collector(Collector collector);

  /// Run every collector and merge the results. Safe from any thread,
  /// any time — instrument reads are relaxed atomic loads, so this
  /// races benignly with hot-path writers (monotonic per-cell).
  Snapshot snapshot() const;

  size_t collector_count() const;

 private:
  friend class Registration;
  void remove(uint64_t id);

  mutable std::mutex mutex_;
  std::vector<std::pair<uint64_t, Collector>> collectors_;
  uint64_t next_id_ = 1;
};

}  // namespace nnn::telemetry
