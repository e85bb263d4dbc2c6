// QUIC-shaped encrypted-transport ablation (PR 10): migration
// survival, DPI collapse, steering stability, and ingest throughput.
//
// Four record groups in BENCH_quic.json:
//
//   quic_migration_survival — the headline number. Encrypted traces
//                       (CID rotations + seeded NAT rebinds) through
//                       the cookie middlebox across a seed matrix:
//                       what fraction of post-handshake packets of
//                       cookie-bearing connections keep their band-0
//                       mapping? The cookie was presented exactly once,
//                       in the handshake. CI gates min_survival >= 0.99.
//   dpi_encrypted /     — the same traces through the DPI baseline,
//   dpi_cleartext         and the TCP+TLS control trace with a readable
//                       SNI. The collapse is the delta between the two
//                       accuracies; CI gates encrypted <= 0.01.
//   quic_steering       — the threaded Dataplane under descriptor
//                       affinity vs naive flow hash: fraction of
//                       connections whose packets all landed on ONE
//                       worker while rotating and migrating.
//   quic_runtime_ingest — the trace through the threaded zero-copy
//                       Dataplane facade; pps, the shed ledger, and the
//                       arena leak gate (exit 1 on a leaked slot).
//
// Run: ./bench/ablation_quic [--json BENCH_quic.json]
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_json.h"
#include "baselines/dpi.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "quic/workload.h"
#include "runtime/dataplane.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace {

using namespace nnn;
using util::kMillisecond;

constexpr uint64_t kSeeds[] = {1, 2, 3, 4, 5};
constexpr size_t kSeedCount = sizeof(kSeeds) / sizeof(kSeeds[0]);

quic::QuicTraceGenerator::Config trace_config(bool cleartext) {
  quic::QuicTraceGenerator::Config config;
  config.connections = 64;
  config.packets_per_connection = 120;
  config.rotate_every = 16;
  config.cleartext = cleartext;
  return config;
}

/// Two migration windows at magnitude 1.0: every connection rebinds
/// twice over the ~380 ms (virtual) trace.
fault::FaultPlan migration_plan() {
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kNatRebind, 60 * kMillisecond,
            60 * kMillisecond, 1.0});
  plan.add({fault::FaultKind::kNatRebind, 220 * kMillisecond,
            60 * kMillisecond, 1.0});
  return plan;
}

struct SurvivalResult {
  uint64_t post_handshake = 0;
  uint64_t survived = 0;
  uint64_t handshakes_mapped = 0;
  uint64_t rotations = 0;
  uint64_t migrations = 0;
  uint64_t packets = 0;
  uint64_t total_nanos = 0;

  double survival() const {
    return post_handshake > 0
               ? static_cast<double>(survived) /
                     static_cast<double>(post_handshake)
               : 0.0;
  }
};

/// One encrypted trace through a single middlebox, with migrations.
SurvivalResult run_survival(uint64_t seed) {
  SurvivalResult result;
  util::ManualClock clock;
  cookies::CookieVerifier verifier(clock);
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  dataplane::Middlebox middlebox(clock, verifier, registry);

  quic::QuicTraceGenerator gen(trace_config(false), clock, &verifier, seed);
  fault::Injector injector;
  injector.arm(migration_plan(), seed);
  gen.set_fault_injector(&injector);

  net::Packet packet;
  const uint64_t t0 = telemetry::monotonic_nanos();
  const size_t total = gen.total_packets();
  for (size_t i = 0; i < total; ++i) {
    packet = net::Packet{};
    const uint32_t conn = gen.fill_next(packet);
    const dataplane::Verdict verdict = middlebox.process(packet);
    clock.advance(50);
    ++result.packets;
    if (!gen.connection(conn).has_cookie) continue;
    if (verdict.mapped_now) {
      ++result.handshakes_mapped;
    } else {
      ++result.post_handshake;
      if (verdict.action.has_value()) ++result.survived;
    }
  }
  result.total_nanos = telemetry::monotonic_nanos() - t0;
  const auto& config = gen.config();
  for (size_t c = 0; c < config.connections; ++c) {
    result.rotations += gen.connection(c).rotations;
    result.migrations += gen.connection(c).migrations;
  }
  return result;
}

struct DpiResult {
  uint64_t correct = 0;
  uint64_t total = 0;
  uint64_t total_nanos = 0;

  double accuracy() const {
    return total > 0
               ? static_cast<double>(correct) / static_cast<double>(total)
               : 0.0;
  }
};

/// One trace through the DPI baseline (no cookie machinery at all).
DpiResult run_dpi(uint64_t seed, bool cleartext) {
  DpiResult result;
  util::ManualClock clock;
  quic::QuicTraceGenerator gen(trace_config(cleartext), clock, nullptr,
                               seed);
  baselines::DpiEngine dpi;
  for (auto& rule : quic::QuicTraceGenerator::dpi_rules()) {
    dpi.add_rule(std::move(rule));
  }
  net::Packet packet;
  const uint64_t t0 = telemetry::monotonic_nanos();
  const size_t total = gen.total_packets();
  for (size_t i = 0; i < total; ++i) {
    packet = net::Packet{};
    const uint32_t conn = gen.fill_next(packet);
    const auto label = dpi.classify(packet);
    ++result.total;
    if (label && *label == gen.connection(conn).app) ++result.correct;
    clock.advance(50);
  }
  result.total_nanos = telemetry::monotonic_nanos() - t0;
  return result;
}

/// Steering stability: fraction of connections all of whose packets
/// landed on one worker, while rotating and migrating.
double run_steering(uint64_t seed, dataplane::DispatchPolicy policy) {
  util::ManualClock plane_clock;  // frozen while workers run
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config plane_config;
  plane_config.policy = policy;
  plane_config.pool.workers = 8;
  plane_config.pool.verdict_capacity = 1 << 14;
  runtime::Dataplane plane(plane_clock, registry, plane_config);

  const auto config = trace_config(false);
  util::ManualClock trace_clock;
  cookies::CookieVerifier staging(trace_clock);
  quic::QuicTraceGenerator gen(config, trace_clock, &staging, seed);
  for (const auto& d : gen.descriptors()) plane.add_descriptor(d);
  fault::Injector injector;
  injector.arm(migration_plan(), seed);
  gen.set_fault_injector(&injector);

  plane.start();
  const size_t total = gen.total_packets();
  for (size_t i = 0; i < total; ++i) {
    runtime::PacketHandle h = plane.make_packet();
    while (!h) h = plane.make_packet();
    gen.fill_next(*h);
    trace_clock.advance(50);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  plane.stop();

  // The generator stamps the connection index into seq; each verdict
  // names the worker that processed the packet.
  std::vector<runtime::VerdictRecord> verdicts;
  plane.drain_verdicts(verdicts);
  std::vector<std::set<size_t>> shards(config.connections);
  for (const auto& v : verdicts) shards[v.seq].insert(v.worker);
  size_t stable = 0;
  for (const auto& s : shards) {
    if (s.size() == 1) ++stable;
  }
  return static_cast<double>(stable) /
         static_cast<double>(config.connections);
}

struct IngestResult {
  uint64_t packets = 0;
  uint64_t processed = 0;
  uint64_t shed = 0;
  uint64_t outstanding = 0;
  uint64_t survived = 0;
  uint64_t post_handshake = 0;
  uint64_t wall_nanos = 0;
  bool ledger_ok = false;
};

/// The full trace through the threaded zero-copy facade.
IngestResult run_ingest(uint64_t seed, size_t workers) {
  IngestResult result;
  util::ManualClock plane_clock;  // frozen while workers run
  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  runtime::Dataplane::Config config;
  config.pool.workers = workers;
  config.pool.verdict_capacity = 1 << 15;
  runtime::Dataplane plane(plane_clock, registry, config);

  util::ManualClock trace_clock;
  cookies::CookieVerifier staging(trace_clock);
  quic::QuicTraceGenerator gen(trace_config(false), trace_clock, &staging,
                               seed);
  for (const auto& d : gen.descriptors()) plane.add_descriptor(d);
  fault::Injector injector;
  injector.arm(migration_plan(), seed);
  gen.set_fault_injector(&injector);
  plane.start();

  const size_t total = gen.total_packets();
  const uint64_t t0 = telemetry::monotonic_nanos();
  for (size_t i = 0; i < total; ++i) {
    runtime::PacketHandle h = plane.make_packet();
    while (!h) h = plane.make_packet();
    gen.fill_next(*h);
    trace_clock.advance(50);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  result.wall_nanos = telemetry::monotonic_nanos() - t0;
  plane.stop();

  const runtime::WorkerSnapshot totals = plane.snapshot().totals();
  result.packets = total;
  result.processed = totals.processed;
  result.shed = totals.shed;
  result.ledger_ok = totals.processed + totals.shed == total;
  result.outstanding = plane.arena().outstanding();

  std::vector<runtime::VerdictRecord> verdicts;
  plane.drain_verdicts(verdicts);
  for (const auto& v : verdicts) {
    if (v.mapped_now) continue;
    if (!gen.connection(v.seq).has_cookie) continue;
    ++result.post_handshake;
    if (v.has_action) ++result.survived;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::strip_json_flag(argc, argv);
  std::vector<bench::BenchRecord> records;
  bool leak = false;

  // --- migration survival across the seed matrix ---
  {
    double min_survival = 1.0, mean_survival = 0.0;
    uint64_t rotations = 0, migrations = 0, packets = 0, nanos = 0;
    for (uint64_t seed : kSeeds) {
      const SurvivalResult r = run_survival(seed);
      min_survival = std::min(min_survival, r.survival());
      mean_survival += r.survival() / kSeedCount;
      rotations += r.rotations;
      migrations += r.migrations;
      packets += r.packets;
      nanos += r.total_nanos;
    }
    bench::BenchRecord record;
    record.name = "quic_migration_survival";
    record.config["seeds"] = static_cast<uint64_t>(kSeedCount);
    record.config["min_survival"] = min_survival;
    record.config["mean_survival"] = mean_survival;
    record.config["rotations"] = rotations;
    record.config["migrations"] = migrations;
    record.ns_per_op = static_cast<double>(nanos) / packets;
    record.ops_per_sec = record.ns_per_op > 0 ? 1e9 / record.ns_per_op : 0;
    std::printf("%-24s min=%.4f mean=%.4f rotations=%llu migrations=%llu  "
                "%.0f pkt/s\n",
                "quic_migration_survival", min_survival, mean_survival,
                static_cast<unsigned long long>(rotations),
                static_cast<unsigned long long>(migrations),
                record.ops_per_sec);
    records.push_back(std::move(record));
  }

  // --- DPI collapse: encrypted vs cleartext control ---
  for (const bool cleartext : {false, true}) {
    double min_acc = 1.0, max_acc = 0.0, mean_acc = 0.0;
    uint64_t packets = 0, nanos = 0;
    for (uint64_t seed : kSeeds) {
      const DpiResult r = run_dpi(seed, cleartext);
      min_acc = std::min(min_acc, r.accuracy());
      max_acc = std::max(max_acc, r.accuracy());
      mean_acc += r.accuracy() / kSeedCount;
      packets += r.total;
      nanos += r.total_nanos;
    }
    bench::BenchRecord record;
    record.name = cleartext ? "dpi_cleartext" : "dpi_encrypted";
    record.config["seeds"] = static_cast<uint64_t>(kSeedCount);
    record.config["min_accuracy"] = min_acc;
    record.config["max_accuracy"] = max_acc;
    record.config["mean_accuracy"] = mean_acc;
    record.ns_per_op = static_cast<double>(nanos) / packets;
    record.ops_per_sec = record.ns_per_op > 0 ? 1e9 / record.ns_per_op : 0;
    std::printf("%-24s mean=%.4f [%.4f, %.4f]  %.0f pkt/s\n",
                record.name.c_str(), mean_acc, min_acc, max_acc,
                record.ops_per_sec);
    records.push_back(std::move(record));
  }

  // --- steering stability: affinity vs flow hash ---
  {
    double affinity = 0.0, flowhash = 0.0;
    for (uint64_t seed : kSeeds) {
      affinity += run_steering(
                      seed, dataplane::DispatchPolicy::kDescriptorAffinity) /
                  kSeedCount;
      flowhash +=
          run_steering(seed, dataplane::DispatchPolicy::kFlowHash) /
          kSeedCount;
    }
    bench::BenchRecord record;
    record.name = "quic_steering";
    record.config["seeds"] = static_cast<uint64_t>(kSeedCount);
    record.config["affinity_stable"] = affinity;
    record.config["flowhash_stable"] = flowhash;
    std::printf("%-24s affinity=%.3f flowhash=%.3f (fraction of "
                "connections on one shard)\n",
                "quic_steering", affinity, flowhash);
    records.push_back(std::move(record));
  }

  // --- threaded ingest throughput + leak gate ---
  {
    const IngestResult r = run_ingest(7, 4);
    bench::BenchRecord record;
    record.name = "quic_runtime_ingest";
    record.config["workers"] = static_cast<uint64_t>(4);
    record.config["packets"] = r.packets;
    record.config["processed"] = r.processed;
    record.config["shed"] = r.shed;
    record.config["ledger_ok"] = r.ledger_ok;
    record.config["arena_outstanding"] = r.outstanding;
    record.config["survival"] =
        r.post_handshake > 0
            ? static_cast<double>(r.survived) /
                  static_cast<double>(r.post_handshake)
            : 0.0;
    record.ns_per_op = r.packets > 0
                           ? static_cast<double>(r.wall_nanos) / r.packets
                           : 0;
    record.ops_per_sec = record.ns_per_op > 0 ? 1e9 / record.ns_per_op : 0;
    std::printf("%-24s %.0f pkt/s ledger=%s outstanding=%llu\n",
                "quic_runtime_ingest", record.ops_per_sec,
                r.ledger_ok ? "ok" : "BROKEN",
                static_cast<unsigned long long>(r.outstanding));
    if (r.outstanding != 0 || !r.ledger_ok) leak = true;
    records.push_back(std::move(record));
  }

  if (!json_path.empty() &&
      !bench::write_bench_json(json_path, "ablation_quic", records)) {
    return 1;
  }
  if (leak) {
    std::fprintf(stderr, "ablation_quic: arena leak or ledger imbalance\n");
    return 1;
  }
  return 0;
}
