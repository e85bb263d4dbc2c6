// Ablation: cost of the cryptographic substrate under the cookie
// design (§4.6 "search and verify a cookie" is the expensive per-flow
// task; these microbenchmarks locate where that cost lives).
//
// Custom main: `--json <path>` dumps every measurement as a
// BenchRecord (see bench_json.h); remaining flags pass through to the
// benchmark library (--benchmark_filter, --benchmark_min_time, ...).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_json.h"
#include "cookies/generator.h"
#include "cookies/verifier.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/clock.h"
#include "util/rng.h"

namespace {

using nnn::util::Bytes;
using nnn::util::BytesView;

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnn::crypto::Sha256::hash(BytesView(data)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(512)->Arg(4096)->Arg(65536);

/// Backend-forced variants isolate the hardware speedup from the
/// midstate/batch layers (the plain BM_Sha256 rows use whatever the
/// runtime dispatcher picked).
void BM_Sha256_Scalar(benchmark::State& state) {
  const auto prev = nnn::crypto::sha256_backend();
  nnn::crypto::sha256_set_backend(nnn::crypto::Sha256Backend::kScalar);
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnn::crypto::Sha256::hash(BytesView(data)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  nnn::crypto::sha256_set_backend(prev);
}
BENCHMARK(BM_Sha256_Scalar)->Arg(64)->Arg(512)->Arg(4096);

void BM_Sha256_ShaNi(benchmark::State& state) {
  if (!nnn::crypto::sha256_shani_supported()) {
    state.SkipWithError("SHA-NI not available on this CPU/build");
    return;
  }
  const auto prev = nnn::crypto::sha256_backend();
  nnn::crypto::sha256_set_backend(nnn::crypto::Sha256Backend::kShaNi);
  const size_t size = static_cast<size_t>(state.range(0));
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnn::crypto::Sha256::hash(BytesView(data)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
  nnn::crypto::sha256_set_backend(prev);
}
BENCHMARK(BM_Sha256_ShaNi)->Arg(64)->Arg(512)->Arg(4096);

void BM_HmacCookieTag(benchmark::State& state) {
  const Bytes key(32, 0x42);
  const Bytes value(32, 0x17);  // id || uuid || timestamp
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nnn::crypto::cookie_tag(BytesView(key), BytesView(value)));
  }
}
BENCHMARK(BM_HmacCookieTag);

void BM_HmacKeyScheduleBuild(benchmark::State& state) {
  // One-time per-descriptor cost: hash the padded key into the
  // inner/outer midstates (two compressions). Paid at add_descriptor.
  const Bytes key(32, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnn::crypto::HmacKeySchedule(BytesView(key)));
  }
}
BENCHMARK(BM_HmacKeyScheduleBuild);

void BM_HmacScheduleTag(benchmark::State& state) {
  // The verify hot path: resume the precomputed midstates, so a
  // one-block message costs 2 compressions instead of 4.
  const Bytes key(32, 0x42);
  const nnn::crypto::HmacKeySchedule schedule{BytesView(key)};
  const Bytes value(32, 0x17);  // id || uuid || timestamp
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule.tag(BytesView(value)));
  }
}
BENCHMARK(BM_HmacScheduleTag);

void BM_CookieGenerate(benchmark::State& state) {
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate());
  }
}
BENCHMARK(BM_CookieGenerate);

void BM_CookieVerify(benchmark::State& state) {
  // Fresh cookies each batch so the replay cache never rejects; the
  // measured path is the full four-check verification. The clock
  // advances 10 us per cookie: past NCT's worth (500,000 cookies, under
  // the 1M clamp) every insert expires about one uuid as it files one,
  // the replay cache's steady state.
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  verifier.add_descriptor(descriptor);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 2);
  std::vector<nnn::cookies::Cookie> batch(4096);
  size_t next = batch.size();
  for (auto _ : state) {
    if (next == batch.size()) {
      state.PauseTiming();
      for (auto& cookie : batch) cookie = generator.generate();
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(verifier.verify(batch[next++]));
    clock.advance(10);  // microseconds
  }
}
BENCHMARK(BM_CookieVerify);

void BM_CookieVerifyBatch(benchmark::State& state) {
  // Same workload as BM_CookieVerify but through verify_batch in
  // bursts of range(0): one clock read and one descriptor lookup per
  // run of same-id cookies. ns/op here is per BURST; divide by the
  // batch size for the per-cookie figure.
  const size_t batch_size = static_cast<size_t>(state.range(0));
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  verifier.add_descriptor(descriptor);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 6);
  std::vector<nnn::cookies::Cookie> pool(4096);
  std::vector<nnn::cookies::VerifyResult> results(batch_size);
  size_t next = pool.size();
  for (auto _ : state) {
    if (next + batch_size > pool.size()) {
      state.PauseTiming();
      for (auto& cookie : pool) cookie = generator.generate();
      next = 0;
      state.ResumeTiming();
    }
    verifier.verify_batch({pool.data() + next, batch_size}, results);
    benchmark::DoNotOptimize(results.data());
    next += batch_size;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_CookieVerifyBatch)->Arg(32)->Arg(256);

void BM_CookieVerifyBatchAtClamp(benchmark::State& state) {
  // The regime a dataplane worker runs in on cookie_storm: bursts of 32
  // fresh cookies from 16,384 ids against a replay cache held at its
  // 1M clamp (every insert evicts the oldest uuid), the clock advancing
  // 89 us per burst (0.36 Mpps, one worker's share). The working set is
  // tens of MB, so the cost is the replay cache's and the hot tier's
  // cache misses as much as HMAC. ns/op is per burst of 32.
  constexpr size_t kIds = 16384;
  constexpr size_t kBurst = 32;
  constexpr nnn::util::Timestamp kStep = 89;  // microseconds
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  std::vector<nnn::crypto::HmacKeySchedule> schedules;
  schedules.reserve(kIds);
  for (size_t id = 0; id < kIds; ++id) {
    nnn::cookies::CookieDescriptor descriptor;
    descriptor.cookie_id = id;
    descriptor.key.assign(32, static_cast<uint8_t>(id * 7 + 1));
    descriptor.key[0] = static_cast<uint8_t>(id >> 8);
    verifier.add_descriptor(descriptor);
    schedules.emplace_back(BytesView(descriptor.key));
  }
  nnn::util::Rng rng(7);
  std::vector<nnn::cookies::Cookie> pool(kBurst * 1024);
  const auto refill = [&] {
    for (auto& cookie : pool) {
      cookie.cookie_id = rng.next_u64(kIds);
      cookie.uuid = nnn::crypto::Uuid::generate(rng);
      cookie.timestamp = nnn::cookies::to_cookie_time(clock.now());
      cookie.signature = cookie.compute_tag(schedules[cookie.cookie_id]);
    }
  };
  std::vector<nnn::cookies::VerifyResult> results(kBurst);
  const auto burst = [&](size_t at) {
    verifier.verify_batch({pool.data() + at, kBurst}, results);
    clock.advance(kStep);
  };
  // Fill the replay cache to its clamp (and every id into the hot
  // tier) before timing.
  const size_t clamp = verifier.external_replay().capacity();
  while (verifier.external_replay().capacity_evictions() == 0 ||
         verifier.stats().total() < clamp + pool.size()) {
    refill();
    for (size_t at = 0; at < pool.size(); at += kBurst) burst(at);
  }
  size_t next = pool.size();
  for (auto _ : state) {
    if (next == pool.size()) {
      state.PauseTiming();
      refill();
      next = 0;
      state.ResumeTiming();
    }
    burst(next);
    benchmark::DoNotOptimize(results.data());
    next += kBurst;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBurst));
  state.counters["replay_entries"] =
      static_cast<double>(verifier.external_replay().size());
}
// One long run: filling the clamp costs about a million verifies, too
// much to repeat for each of the library's iteration-count probes.
BENCHMARK(BM_CookieVerifyBatchAtClamp)->Iterations(20000);

void BM_CookieVerifyRejectBadTag(benchmark::State& state) {
  // The attack path: a forged signature must be rejected no slower
  // than a valid one verifies (constant-time compare).
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  verifier.add_descriptor(descriptor);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 3);
  auto cookie = generator.generate();
  cookie.signature[0] ^= 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier.verify(cookie));
  }
}
BENCHMARK(BM_CookieVerifyRejectBadTag);

void BM_CookieEncodeDecode(benchmark::State& state) {
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 4);
  const auto cookie = generator.generate();
  for (auto _ : state) {
    const auto wire = cookie.encode();
    benchmark::DoNotOptimize(nnn::cookies::Cookie::decode(BytesView(wire)));
  }
}
BENCHMARK(BM_CookieEncodeDecode);

void BM_CookieTextRoundTrip(benchmark::State& state) {
  // The base64 text form used in HTTP headers / TLS extensions.
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 5);
  const auto cookie = generator.generate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nnn::cookies::Cookie::decode_text(cookie.encode_text()));
  }
}
BENCHMARK(BM_CookieTextRoundTrip);

double to_nanoseconds(double value, benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond: return value;
    case benchmark::kMicrosecond: return value * 1e3;
    case benchmark::kMillisecond: return value * 1e6;
    case benchmark::kSecond: return value * 1e9;
  }
  return value;
}

/// Console output as usual, plus a BenchRecord per measured run for
/// the --json dump.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      nnn::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.config["iterations"] = static_cast<int64_t>(run.iterations);
      rec.config["sha256_default_backend"] =
          nnn::crypto::to_string(nnn::crypto::sha256_backend());
      rec.ns_per_op =
          to_nanoseconds(run.GetAdjustedRealTime(), run.time_unit);
      rec.ops_per_sec = rec.ns_per_op > 0 ? 1e9 / rec.ns_per_op : 0;
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<nnn::bench::BenchRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_crypto",
                                    reporter.records)) {
    return 1;
  }
  return 0;
}
