// Telemetry overhead ablation (acceptance gate: <2%).
//
// The registry is pull-based, so the only telemetry cost the hot path
// ever sees is (a) single-writer Counter::inc — a relaxed load+store
// the optimiser folds into the surrounding arithmetic — and (b) the
// per-burst ScopedTimer clock reads feeding the latency histograms.
// This bench measures that cost end to end by flipping the process-
// wide telemetry::set_timers_enabled switch around otherwise identical
// runs:
//
//   verify:  CookieVerifier::verify_batch over bursts of 32 fresh
//            cookies (the 718 ns SHA-NI path from BENCH_crypto). The
//            ScopedTimer here is one pair of clock reads per burst,
//            ~1 ns amortised per cookie.
//   pool:    the full threaded dataplane at 1 and 4 workers on the
//            Fig. 4 campus workload (512 B packets, 50-pkt flows),
//            reported as per-core ns/packet (packets / max worker CPU
//            time — robust to core-starved CI hosts).
//
// Arms are interleaved (off, on, off, on, ...) and each arm reports
// its MINIMUM across rounds: scheduler noise only ever adds time (the
// pool runs several threads and a CI container may give them one
// core), so the min is each arm's undisturbed floor and min-vs-min
// isolates the real timer cost. `--json <path>` dumps BenchRecords;
// the timers-on records carry overhead_pct in their config, which CI
// asserts stays < 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cookies/cookie.h"
#include "cookies/verifier.h"
#include "dataplane/service_registry.h"
#include "runtime/dataplane.h"
#include "telemetry/metrics.h"
#include "util/clock.h"
#include "workload/packet_gen.h"

namespace {

uint64_t steady_nanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double minimum(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

// One verify round: fresh verifier and fresh cookies (the replay cache
// rejects repeats), so every round does the same work regardless of
// order. Returns ns per verified cookie.
double verify_round(size_t cookies, size_t burst) {
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  verifier.add_descriptor(descriptor);
  nnn::cookies::CookieGenerator generator(descriptor, clock, 7);

  std::vector<nnn::cookies::Cookie> pool(cookies);
  for (auto& cookie : pool) cookie = generator.generate();
  std::vector<nnn::cookies::VerifyResult> results(burst);

  const uint64_t t0 = steady_nanos();
  for (size_t next = 0; next + burst <= pool.size(); next += burst) {
    verifier.verify_batch({pool.data() + next, burst}, results);
  }
  const uint64_t t1 = steady_nanos();
  const size_t verified = (pool.size() / burst) * burst;
  return static_cast<double>(t1 - t0) / static_cast<double>(verified);
}

// One pool round: the ablation_runtime closed loop. Returns worker
// CPU nanoseconds per packet — SUM of worker busy time over packets,
// not ablation_runtime's critical-path max: an overhead gate wants the
// total work the timers add, and the sum is robust to the load
// imbalance an oversubscribed host injects into the max.
double pool_round(size_t workers, size_t flows, size_t descriptors) {
  nnn::util::SystemClock clock;
  nnn::dataplane::ServiceRegistry registry;
  registry.bind("Boost", nnn::dataplane::PriorityAction{0});

  nnn::workload::PacketGenerator::Config wl;
  wl.packet_size = 512;
  wl.packets_per_flow = 50;
  wl.descriptors = descriptors;

  nnn::cookies::CookieVerifier staging(clock);
  nnn::workload::PacketGenerator generator(wl, clock, staging, 12345);

  nnn::runtime::Dataplane::Config config;  // descriptor affinity
  config.pool.workers = workers;
  config.pool.ring_capacity = 4096;
  config.pool.batch_size = 32;
  nnn::runtime::Dataplane plane(clock, registry, config);
  for (const auto& d : generator.descriptors()) plane.add_descriptor(d);

  auto batch = generator.make_batch(flows);
  plane.start();
  for (auto& packet : batch) {
    nnn::runtime::PacketHandle h = plane.make_packet();
    while (!h) h = plane.make_packet();  // workers are draining slots
    *h = std::move(packet);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  plane.stop();

  const auto totals = plane.snapshot().totals();
  return totals.packets > 0
             ? static_cast<double>(totals.busy_micros) * 1e3 /
                   static_cast<double>(totals.packets)
             : 0;
}

struct Arm {
  double off_ns = 0;        // min ns/op across rounds, timers disabled
  double on_ns = 0;         // min ns/op across rounds, timers enabled
  double overhead_pct = 0;  // (on_ns - off_ns) / off_ns
};

template <typename RoundFn>
Arm measure(size_t rounds, RoundFn&& round) {
  // One throwaway warm-up round first (page cache, branch predictors).
  nnn::telemetry::set_timers_enabled(false);
  (void)round();
  std::vector<double> off, on;
  for (size_t i = 0; i < rounds; ++i) {
    nnn::telemetry::set_timers_enabled(false);
    off.push_back(round());
    nnn::telemetry::set_timers_enabled(true);
    on.push_back(round());
  }
  nnn::telemetry::set_timers_enabled(true);
  Arm arm{minimum(off), minimum(on), 0};
  if (arm.off_ns > 0) {
    arm.overhead_pct = (arm.on_ns - arm.off_ns) / arm.off_ns * 100.0;
  }
  return arm;
}

void push_records(std::vector<nnn::bench::BenchRecord>& records,
                  const std::string& base, const Arm& arm,
                  const nnn::json::Object& shared) {
  for (const bool timers_on : {false, true}) {
    nnn::bench::BenchRecord rec;
    rec.name = base + "/timers=" + (timers_on ? "on" : "off");
    rec.config = shared;
    rec.config["timers"] = timers_on;
    if (timers_on) rec.config["overhead_pct"] = arm.overhead_pct;
    rec.ns_per_op = timers_on ? arm.on_ns : arm.off_ns;
    rec.ops_per_sec = rec.ns_per_op > 0 ? 1e9 / rec.ns_per_op : 0;
    records.push_back(std::move(rec));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  // Many short rounds beat few long ones: the min only needs ONE
  // undisturbed round per arm, and a short round is less likely to
  // straddle a co-tenant burst or a scheduler migration.
  size_t rounds = 15;
  size_t verify_cookies = 16'384;
  size_t flows = 1000;  // x50 packets = 50K packets per pool round
  if (argc > 1) rounds = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) flows = static_cast<size_t>(std::atoll(argv[2]));

  std::vector<nnn::bench::BenchRecord> records;
  std::printf("=== Telemetry overhead: ScopedTimer histograms on vs off "
              "===\n");
  std::printf("%zu interleaved rounds per arm, min-of-rounds reported; "
              "gate is overhead < 2%%\n\n", rounds);
  std::printf("%-24s %12s %12s %10s\n", "path", "off ns/op", "on ns/op",
              "overhead");

  const Arm verify = measure(rounds, [&] {
    return verify_round(verify_cookies, 32);
  });
  std::printf("%-24s %12.1f %12.1f %9.2f%%\n", "verify_batch (per cookie)",
              verify.off_ns, verify.on_ns, verify.overhead_pct);
  {
    nnn::json::Object cfg;
    cfg["burst"] = 32;
    cfg["cookies"] = static_cast<int64_t>(verify_cookies);
    cfg["rounds"] = static_cast<int64_t>(rounds);
    push_records(records, "telemetry/verify_batch", verify, cfg);
  }

  for (const size_t workers : {1u, 4u}) {
    const Arm pool = measure(rounds, [&] {
      return pool_round(workers, flows, 10'000);
    });
    const std::string label =
        "pool workers=" + std::to_string(workers) + " (cpu/pkt)";
    std::printf("%-24s %12.1f %12.1f %9.2f%%\n", label.c_str(), pool.off_ns,
                pool.on_ns, pool.overhead_pct);
    nnn::json::Object cfg;
    cfg["workers"] = static_cast<int64_t>(workers);
    cfg["packet_size"] = 512;
    cfg["flows"] = static_cast<int64_t>(flows);
    cfg["rounds"] = static_cast<int64_t>(rounds);
    push_records(records,
                 "telemetry/pool/workers=" + std::to_string(workers), pool,
                 cfg);
  }

  std::printf("\nnote: counters are always on (a relaxed load+store the "
              "compiler schedules\nfor free); the switch only gates the "
              "per-burst ScopedTimer clock reads.\n");
  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_telemetry",
                                    records)) {
    return 1;
  }
  return 0;
}
