// nnnbench — the repository's end-to-end benchmark of the cookie
// middlebox (see README.md in this directory).
//
//   nnnbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-out FILE] [--json FILE] [--quick] [--commit ID]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced run and reports the per-layer metrics. Either way the
// last line of standard output is one JSON object:
//   {"attempted": N, "correct": bool, "failed": N, "metrics": {...}}
// The exit code is 0 only when every oracle check held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "clock.h"
#include "crypto/sha256.h"
#include "json/json.h"
#include "runner.h"
#include "stages.h"
#include "state/mem.h"
#include "trace.h"
#include "workloads.h"

#ifndef NNNBENCH_BUILD_TYPE
#define NNNBENCH_BUILD_TYPE "unknown"
#endif
#ifndef NNNBENCH_CXX_FLAGS
#define NNNBENCH_CXX_FLAGS "unknown"
#endif

namespace nnnbench {
namespace {

using nnn::json::Object;
using nnn::json::Value;

/// Set-ups timed in each of a run's three bursts (before each phase,
/// after the last); setup_s is the median of all of them.
constexpr int kSetupsPerBurst = 3;
/// Share of --seconds each phase is sized for (by the workload's
/// reference rates).
constexpr double kPhaseShare = 0.5;
/// Packets the stage replay drives through each layer.
constexpr size_t kStagePackets = size_t{1} << 20;
/// Reconciliation flags a predicted-vs-measured capacity gap above this.
constexpr double kReconcileTolerance = 0.25;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
  std::string json_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nnnbench: %s\n"
               "usage: nnnbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] [--json FILE] [--quick] "
               "[--commit ID]\nworkloads:",
               why);
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--json") {
      options.json_out = value();
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--list") {
      for (const Workload& w : workloads()) {
        std::printf("%.*s\n", static_cast<int>(w.name.size()), w.name.data());
      }
      std::exit(0);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

Object provenance(const Options& options) {
  Object p;
  p["nproc"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
  p["cpu"] = cpu_model();
  p["sha256_backend"] =
      nnn::crypto::to_string(nnn::crypto::sha256_backend());
  p["compiler"] = compiler();
  p["cxx_flags"] = NNNBENCH_CXX_FLAGS;
  p["build_type"] = NNNBENCH_BUILD_TYPE;
  p["commit"] = options.commit;
  p["seed"] = options.seed;
  p["workers"] = static_cast<uint64_t>(kWorkers);
  return p;
}

/// A phase at `pps`: the workload's warm-up, then kPhaseShare of
/// --seconds of measured rounds at that rate (a tenth of both with
/// --quick).
PhasePlan plan_for(const Workload& workload, double pps,
                   const Options& options) {
  const double scale = options.quick ? 0.1 : 1.0;
  PhasePlan plan;
  plan.pps = pps;
  plan.round_packets = std::clamp(
      static_cast<size_t>(pps * kRoundSeconds) / kBurst * kBurst,
      kMinRoundPackets, kMaxRoundPackets);
  plan.warmup_ns =
      static_cast<int64_t>(static_cast<double>(workload.warmup) * 1e3 * scale);
  const double measured_s = kPhaseShare * options.seconds * scale;
  plan.rounds = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             pps * measured_s / static_cast<double>(plan.round_packets))));
  return plan;
}

/// Nearest-rank quantiles, reordering `v` in place.
struct Quantiles {
  size_t samples = 0;
  double p50 = 0, p99 = 0, p999 = 0, max = 0;
};

Quantiles quantiles_us(std::vector<uint32_t>& v) {
  Quantiles q;
  q.samples = v.size();
  if (v.empty()) return q;
  q.p50 = quantile_us(v, 0.50);
  q.p99 = quantile_us(v, 0.99);
  q.p999 = quantile_us(v, 0.999);
  q.max = static_cast<double>(*std::max_element(v.begin(), v.end())) / 1e3;
  return q;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What every run reports, whichever metrics it measured.
struct Outcome {
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  Object details;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void absorb(const Runner& runner, uint64_t shed) {
    attempted += runner.attempts();
    failed += shed + runner.verdicts_dropped();
    if (!runner.oracle().ok() && correct) {
      correct = false;
      failure = runner.oracle().first_failure() + " (" +
                std::to_string(runner.oracle().failures()) + " failures)";
    }
  }
};

/// Bytes in live heap blocks: what the dataplane's structures occupy,
/// whatever the allocator's layout. The resident size also counts freed
/// pages the allocator keeps, and those follow thread timing: over six
/// quic_migrate runs it ranged 65-99 MiB while the live heap stayed
/// within 52-55 MiB.
double heap_bytes() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
#else
  return static_cast<double>(nnn::state::resident_bytes());
#endif
}

/// A JSON array of numbers.
template <class T>
Value array_of(const std::vector<T>& v) {
  nnn::json::Array a;
  for (const T& x : v) a.emplace_back(static_cast<double>(x));
  return Value(std::move(a));
}

double seconds_since(int64_t t0) {
  return static_cast<double>(Tracer::now_ns() - t0) / 1e9;
}

/// --trace 0: set-up (several times), capacity, latency, memory.
void run_end_to_end(const Workload& workload, const Options& options,
                    Outcome& out) {
  const PhasePlan capacity_plan =
      plan_for(workload, workload.capacity_pps, options);
  const PhasePlan latency_plan =
      plan_for(workload, workload.offered_pps, options);
  PausableClock clock(kClockOrigin);

  // Set-ups are timed in bursts before each phase and after the last,
  // so setup_s follows the host over the whole run rather than over
  // its first few hundred milliseconds. The last rig of a burst runs the
  // next phase: each phase gets a fresh rig because a dataplane keeps
  // the state one rate built (flows for an idle timeout, uuids for the
  // NCT) well after the rate changes, so a phase run on the other's rig
  // would measure the transition rather than its own operating point.
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const auto set_up = [&] {
    for (int k = 0; k < kSetupsPerBurst; ++k) {
      rig.reset();  // tear the previous one down outside the timer
      const int64_t t0 = Tracer::now_ns();
      rig = build_rig(workload, options.seed, clock);
      setups.push_back(seconds_since(t0));
    }
  };

  set_up();
  PhaseResult capacity;
  {
    auto traffic = Traffic::create(workload, options.seed);
    Runner runner(options.seed, clock, *rig, *traffic, nullptr);
    capacity = runner.capacity(capacity_plan);
    runner.finish();
    out.absorb(runner, 0);
  }
  const double capacity_mpps = median(capacity.round_mpps);
  std::printf("capacity  closed loop, %zu warm-up + %zu measured rounds of "
              "%zu packets: %.4f Mpps (median; %.4f Mpps over all measured)\n",
              capacity.warmup_rounds, capacity.round_mpps.size(),
              capacity_plan.round_packets, capacity_mpps, capacity.mpps());

  set_up();
  PhaseResult latency;
  Quantiles q, late;
  double heap_mib = 0, rss_mib = 0;
  uint64_t verdicts_dropped = 0, oracle_checked = 0;
  {
    auto traffic = Traffic::create(workload, options.seed);
    Runner runner(options.seed, clock, *rig, *traffic, nullptr);
    latency = runner.latency(latency_plan);
    q = quantiles_us(latency.latency_ns);
    late = quantiles_us(latency.lateness_ns);
    // Memory at the open-loop operating point, with the traffic buffers
    // gone: what the dataplane holds.
    std::vector<uint32_t>().swap(latency.latency_ns);
    std::vector<uint32_t>().swap(latency.lateness_ns);
    runner.release_buffers();
    traffic.reset();
    heap_mib = heap_bytes() / (1024.0 * 1024.0);
    rss_mib =
        static_cast<double>(nnn::state::resident_bytes()) / (1024.0 * 1024.0);
    runner.finish();
    out.absorb(runner, latency.shed);
    verdicts_dropped = runner.verdicts_dropped();
    oracle_checked = runner.oracle().checked();
  }
  const double p50 = median(latency.round_p50_us);
  const double mean = median(latency.round_mean_us);
  const double p99 = median(latency.round_p99_us);
  const double served = ratio(static_cast<double>(latency.verdicts),
                              static_cast<double>(latency.offered));
  std::printf("latency   open loop at %.3f Mpps offered (%.3f achieved), "
              "%zu warm-up + %zu measured rounds of %zu packets: p50 %.2f us"
              "  mean %.2f us  p99 %.2f us (medians over rounds)\n",
              workload.offered_pps / 1e6, latency.mpps(), latency.warmup_rounds,
              latency.round_p50_us.size(), latency_plan.round_packets, p50,
              mean, p99);
  std::printf("          all measured: p50 %.2f us  p99 %.2f us  p99.9 %.2f us"
              "  max %.1f us  (%zu samples)\n",
              q.p50, q.p99, q.p999, q.max, q.samples);
  std::printf("          shed %llu, served %.6f; generator lateness p50 "
              "%.2f us p99 %.2f us\n",
              static_cast<unsigned long long>(latency.shed), served, late.p50,
              late.p99);

  set_up();
  rig.reset();
  std::printf("memory    live heap %.1f MiB (resident %.1f MiB)\n"
              "setup     median %.4f s over %zu (min %.4f, max %.4f)\n",
              heap_mib, rss_mib, median(setups), setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  out.metric("setup_s", median(setups), "s");
  out.metric("capacity_mpps", capacity_mpps, "Mpps");
  // The tail (mean, p99, p99.9, max) is reported, not gated: it is set
  // by the dataplane's periodic stalls, whose length follows memory
  // contention on the host and swings between runs (see README).
  out.metric("latency_p50_us", p50, "us");
  out.metric("served_frac", served, "ratio");
  out.metric("heap_mib", heap_mib, "MiB");

  Object d;
  d["setup_runs_s"] = array_of(setups);
  d["capacity_round_packets"] = capacity_plan.round_packets;
  d["capacity_warmup_rounds"] = capacity.warmup_rounds;
  d["capacity_measured_mpps"] = capacity.mpps();
  d["capacity_round_mpps"] = array_of(capacity.round_mpps);
  d["latency_packets"] = latency.offered;
  d["latency_round_packets"] = latency_plan.round_packets;
  d["latency_warmup_rounds"] = latency.warmup_rounds;
  d["latency_offered_mpps"] = workload.offered_pps / 1e6;
  d["latency_achieved_mpps"] = latency.mpps();
  d["latency_round_p50_us"] = array_of(latency.round_p50_us);
  d["latency_round_p99_us"] = array_of(latency.round_p99_us);
  d["latency_p99_us"] = p99;
  d["latency_mean_us"] = mean;
  d["latency_round_mean_us"] = array_of(latency.round_mean_us);
  d["rss_mib"] = rss_mib;
  d["latency_all_p50_us"] = q.p50;
  d["latency_all_p99_us"] = q.p99;
  d["latency_all_p999_us"] = q.p999;
  d["latency_all_max_us"] = q.max;
  d["latency_samples"] = q.samples;
  d["latency_shed"] = latency.shed;
  d["generator_lateness_p99_us"] = late.p99;
  d["verdicts_dropped"] = verdicts_dropped;
  d["oracle_checked"] = oracle_checked;
  out.details = std::move(d);
}

/// --trace 1: an untraced capacity phase, the same phase again on a
/// fresh rig with producer-side spans, then the stage replay. Only the
/// capacity phase is traced: it is the phase the stages must account
/// for, and the untraced twin gives the tracing overhead.
void run_traced(const Workload& workload, const Options& options,
                Outcome& out, Tracer& tracer) {
  const PhasePlan plan = plan_for(workload, workload.capacity_pps, options);
  double untraced_mpps = 0;
  {
    PausableClock clock(kClockOrigin);
    auto rig = build_rig(workload, options.seed, clock);
    auto traffic = Traffic::create(workload, options.seed);
    Runner runner(options.seed, clock, *rig, *traffic, nullptr);
    untraced_mpps = median(runner.capacity(plan).round_mpps);
    runner.finish();
    out.absorb(runner, 0);
  }

  PausableClock clock(kClockOrigin);
  auto rig = build_rig(workload, options.seed, clock);
  auto traffic = Traffic::create(workload, options.seed);
  Runner runner(options.seed, clock, *rig, *traffic, &tracer);
  nnn::runtime::Dataplane& plane = *rig->plane;
  const PhaseResult capacity = runner.capacity(plan);

  // The pool is drained: worker state is safe to read.
  uint64_t map_only = 0, mb_packets = 0, flows = 0, alias_cids = 0;
  uint64_t hot_hits = 0, rehydrations = 0, replay_entries = 0;
  for (size_t w = 0; w < plane.worker_count(); ++w) {
    const auto stats = plane.middlebox(w).stats();
    map_only += stats.task_map_only;
    mb_packets += stats.packets;
    flows += plane.middlebox(w).flows().size();
    alias_cids += plane.middlebox(w).flows().alias_cids();
    const auto& verifier = plane.verifier(w);
    hot_hits += verifier.hot_tier().hits();
    rehydrations += verifier.hot_tier().rehydrations();
    replay_entries += verifier.external_replay().size();
  }

  const size_t stage_packets =
      options.quick ? kStagePackets / 10 : kStagePackets;
  const StageResult stages =
      stage_replay(workload, options.seed, stage_packets, plan.round_packets,
                   runner.capacity_round_starts(), *rig, tracer);
  runner.finish();
  out.absorb(runner, 0);

  const double capacity_s = static_cast<double>(capacity.measured_ns) / 1e9;
  const double traced_mpps = median(capacity.round_mpps);
  const double overhead = 1.0 - ratio(traced_mpps, untraced_mpps);
  const std::map<std::string, SpanTotals> spans = tracer.summary();
  const auto per_packet = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : ratio(static_cast<double>(it->second.ns),
                       static_cast<double>(capacity.measured_packets));
  };
  const double make_ns = tracer.ns_per_call("runtime.make_packet");
  const double ingest_ns = tracer.ns_per_call("runtime.ingest");
  const double producer_ns = per_packet("runtime.make_packet") +
                             per_packet("bench.build") +
                             per_packet("runtime.ingest") +
                             per_packet("bench.emit");
  const double process_ns = tracer.ns_per_call("dataplane.process");
  const double max_share =
      ratio(static_cast<double>(capacity.workers.busiest_packets),
            static_cast<double>(capacity.workers.packets));
  const double producer_mpps = ratio(1e3, producer_ns);
  const double worker_mpps = ratio(1e3, process_ns * max_share);
  const double predicted = std::min(producer_mpps, worker_mpps);
  // The stage numbers must account for the rate of the run they were
  // taken in (same rounds, same host placement); the untraced twin's
  // capacity_mpps is printed beside it.
  const double traced_overall = capacity.mpps();
  const double gap = ratio(predicted - traced_overall, traced_overall);

  std::printf("tracing   capacity untraced %.4f Mpps, traced %.4f Mpps: "
              "overhead %.2f%%; %zu spans kept\n",
              untraced_mpps, traced_mpps, 100 * overhead, tracer.kept());
  std::printf("%-24s %12s %12s %14s %8s\n", "span", "calls", "ns/call",
              "self ns (kept)", "kept");
  for (const auto& [name, totals] : spans) {
    std::printf("%-24s %12llu %12.1f %14llu %8llu\n", name.c_str(),
                static_cast<unsigned long long>(totals.calls),
                totals.ns_per_call(),
                static_cast<unsigned long long>(totals.self_ns),
                static_cast<unsigned long long>(totals.kept));
  }
  std::printf(
      "reconcile producer %.1f ns/packet (make_packet %.1f + build %.1f + "
      "ingest %.1f + emit %.1f) -> %.4f Mpps\n",
      producer_ns, per_packet("runtime.make_packet"),
      per_packet("bench.build"), per_packet("runtime.ingest"),
      per_packet("bench.emit"), producer_mpps);
  std::printf(
      "          workers %.1f ns/packet (dataplane.process) x busiest share "
      "%.3f -> %.4f Mpps\n",
      process_ns, max_share, worker_mpps);
  std::printf("          predicted %.4f Mpps vs measured %.4f Mpps in the "
              "traced run: gap %+.1f%%%s (capacity_mpps untraced: %.4f)\n",
              predicted, traced_overall, 100 * gap,
              std::abs(gap) > kReconcileTolerance ? "  ** GAP OVER 25% **" : "",
              untraced_mpps);

  out.metric("runtime.make_packet_ns", make_ns, "ns");
  out.metric("runtime.ingest_ns", ingest_ns, "ns");
  out.metric("runtime.steer_ns", tracer.ns_per_call("runtime.steer"), "ns");
  out.metric("runtime.worker_busy_frac",
             ratio(static_cast<double>(capacity.workers.busy_micros),
                   static_cast<double>(kWorkers) * capacity_s * 1e6),
             "ratio");
  out.metric("runtime.avg_batch",
             ratio(static_cast<double>(capacity.workers.packets),
                   static_cast<double>(capacity.workers.batches)),
             "count");
  out.metric("net.cookie_bytes_ns", tracer.ns_per_call("net.cookie_bytes"),
             "ns");
  out.metric("cookies.peek_id_ns", tracer.ns_per_call("cookies.peek_id"), "ns");
  out.metric("cookies.extract_ns", tracer.ns_per_call("cookies.extract"), "ns");
  out.metric("crypto.hmac_ns", tracer.ns_per_call("crypto.hmac"), "ns");
  out.metric("cookies.verify_ns", tracer.ns_per_call("cookies.verify"), "ns");
  out.metric("cookies.verify_ok_frac",
             ratio(static_cast<double>(stages.verify_ok),
                   static_cast<double>(stages.verify_calls)),
             "ratio");
  out.metric("state.replay_insert_ns",
             tracer.ns_per_call("state.replay_insert"), "ns");
  out.metric("state.replay_entries", static_cast<double>(replay_entries),
             "count");
  out.metric("state.descriptor_find_ns",
             tracer.ns_per_call("state.descriptor_find"), "ns");
  // Local mode keeps every key schedule resident: every lookup is hot.
  out.metric("cookies.hot_hit_frac",
             workload.external_table
                 ? ratio(static_cast<double>(hot_hits),
                         static_cast<double>(hot_hits + rehydrations))
                 : 1.0,
             "ratio");
  out.metric("dataplane.process_ns", process_ns, "ns");
  out.metric("dataplane.fast_path_frac",
             ratio(static_cast<double>(map_only),
                   static_cast<double>(mb_packets)),
             "ratio");
  out.metric("dataplane.flows_live", static_cast<double>(flows), "count");
  out.metric("quic.learn_ns", tracer.ns_per_call("quic.learn"), "ns");
  out.metric("quic.alias_cids", static_cast<double>(alias_cids), "count");

  Object d;
  d["capacity_untraced_mpps"] = untraced_mpps;
  d["capacity_traced_mpps"] = traced_mpps;
  d["tracing_overhead_frac"] = overhead;
  d["producer_ns_per_packet"] = producer_ns;
  d["worker_busiest_share"] = max_share;
  d["predicted_mpps"] = predicted;
  d["traced_measured_mpps"] = traced_overall;
  d["reconcile_gap_frac"] = gap;
  d["reconcile_flagged"] = std::abs(gap) > kReconcileTolerance;
  d["stage_packets"] = stages.packets;
  Object span_totals;
  for (const auto& [name, totals] : spans) {
    Object s;
    s["calls"] = totals.calls;
    s["ns"] = totals.ns;
    s["ns_per_call"] = totals.ns_per_call();
    s["kept"] = totals.kept;
    s["self_ns_kept"] = totals.self_ns;
    span_totals[name] = Value(std::move(s));
  }
  d["spans"] = Value(std::move(span_totals));
  out.details = std::move(d);
}

}  // namespace
}  // namespace nnnbench

int main(int argc, char** argv) {
  using namespace nnnbench;
  const Options options = parse_options(argc, argv);
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    usage(("unknown workload " + options.workload).c_str());
  }

  Object prov = provenance(options);
  std::printf("== nnnbench %s  seed %llu  seconds %g%s  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.quick ? " (quick: 1/10 packets)" : "",
              options.trace ? 1 : 0);
  std::printf("provenance %s\n", Value(prov).dump().c_str());
  std::fflush(stdout);

  Outcome out;
  Tracer tracer;
  if (options.trace) {
    run_traced(*workload, options, out, tracer);
    if (!options.trace_out.empty()) {
      if (tracer.write(options.trace_out)) {
        std::printf("spans     %zu written to %s\n", tracer.kept(),
                    options.trace_out.c_str());
      } else {
        std::fprintf(stderr, "nnnbench: cannot write %s\n",
                     options.trace_out.c_str());
        return 1;
      }
    }
  } else {
    run_end_to_end(*workload, options, out);
  }
  std::printf("oracle    %s\n", out.correct
                                    ? "ok"
                                    : ("FAILED: " + out.failure).c_str());

  Object metrics;
  for (const auto& [name, value_unit] : out.metrics) {
    Object m;
    m["value"] = value_unit.first;
    m["unit"] = value_unit.second;
    metrics[name] = Value(std::move(m));
    std::printf("metric    %-26s %.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  Object result;
  result["correct"] = out.correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = Value(metrics);

  if (!options.json_out.empty()) {
    Object doc = result;
    doc["benchmark"] = "nnnbench";
    doc["workload"] = options.workload;
    doc["seconds"] = options.seconds;
    doc["quick"] = options.quick;
    doc["trace"] = options.trace;
    doc["provenance"] = Value(std::move(prov));
    doc["details"] = Value(std::move(out.details));
    if (!out.correct) doc["failure"] = out.failure;
    std::ofstream file(options.json_out);
    file << Value(std::move(doc)).dump_pretty() << "\n";
    if (!file) {
      std::fprintf(stderr, "nnnbench: cannot write %s\n",
                   options.json_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", Value(std::move(result)).dump().c_str());
  return out.correct ? 0 : 1;
}
