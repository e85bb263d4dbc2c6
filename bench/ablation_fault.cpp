// Fault-injection ablation: what do the PR 5 hooks cost when nothing
// is being injected?
//
// The injection points are always compiled in (injector.h: chaos
// coverage that only exists in a special build is coverage the release
// binary never had), so the cost that matters is the disabled path.
// Three modes over the same verify workload:
//
//   none        — no injector installed: every hook is one branch on a
//                 null pointer (the shipping configuration);
//   disarmed    — injector installed but not armed: hooks make the
//                 call, see armed_ == false, return immediately;
//   armed-idle  — injector armed with a schedule entirely in the
//                 future: hooks scan the (6-event) plan every packet
//                 and never fire — the worst case that still injects
//                 nothing.
//
// Acceptance bar: `none` vs either disabled mode within 1%. Modes are
// interleaved, best-of-5 per mode, per-core = packets / max worker CPU
// time — the same discipline as ablation_controlplane's swap gate.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "controlplane/epoch.h"
#include "controlplane/table_mirror.h"
#include "dataplane/service_registry.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "runtime/dataplane.h"
#include "util/clock.h"
#include "workload/packet_gen.h"

namespace {

using nnn::util::kSecond;

enum class Mode { kNone, kDisarmed, kArmedIdle };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNone:
      return "none";
    case Mode::kDisarmed:
      return "disarmed";
    case Mode::kArmedIdle:
      return "armed-idle";
  }
  return "?";
}

struct FaultRunResult {
  double percore_mpps = 0;
  uint64_t verified = 0;
  uint64_t injected = 0;
};

FaultRunResult run_pool(Mode mode, size_t workers, size_t flows,
                        size_t descriptors) {
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

  nnn::controlplane::TablePublisher tables;
  plane.bind_table_publisher(tables);
  nnn::controlplane::TableMirror mirror;
  mirror.reset(1, generator.descriptors(), {});
  tables.publish(mirror.build());

  nnn::fault::Injector injector;
  if (mode != Mode::kNone) {
    if (mode == Mode::kArmedIdle) {
      // A full-size schedule that never becomes active: every hook
      // walks the event list and comes back empty-handed.
      nnn::fault::FaultPlan::Spec spec;
      spec.horizon = kSecond;
      const nnn::fault::FaultPlan drawn = nnn::fault::FaultPlan::random(7, spec);
      nnn::fault::FaultPlan plan;
      const nnn::util::Timestamp far_future = clock.now() + 3600 * kSecond;
      for (nnn::fault::FaultEvent e : drawn.events()) {
        e.start += far_future;
        plan.add(e);
      }
      injector.arm(plan, 7);
    }
    plane.set_fault_injector(&injector);
  }

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

  const auto snap = plane.snapshot();
  FaultRunResult r;
  const double critical_us = static_cast<double>(snap.max_busy_micros());
  r.percore_mpps =
      critical_us > 0
          ? static_cast<double>(snap.totals().packets) / critical_us
          : 0;
  r.verified = plane.total_verified();
  r.injected = injector.total_injected();
  return r;
}

double overhead_pct(const FaultRunResult& baseline,
                    const FaultRunResult& mode) {
  return baseline.percore_mpps > 0
             ? 100.0 * (baseline.percore_mpps - mode.percore_mpps) /
                   baseline.percore_mpps
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  size_t flows = 8000;  // x50 packets per run
  if (argc > 1) flows = static_cast<size_t>(std::atoll(argv[1]));
  const size_t workers = 2;
  const size_t descriptors = 1000;

  std::printf("=== Fault hooks: injection-disabled overhead ===\n");
  std::printf("%zu workers, 512 B packets, %zu flows x50, descriptor-"
              "affinity dispatch;\nper-core = packets / max worker CPU "
              "time, best of 5 interleaved runs per mode\n\n",
              workers, flows);

  constexpr Mode kModes[] = {Mode::kNone, Mode::kDisarmed, Mode::kArmedIdle};
  FaultRunResult best[3];
  for (int rep = 0; rep < 5; ++rep) {
    for (int m = 0; m < 3; ++m) {
      const FaultRunResult r = run_pool(kModes[m], workers, flows, descriptors);
      if (r.percore_mpps > best[m].percore_mpps) best[m] = r;
    }
  }

  std::printf("%-12s %14s %12s %10s %10s\n", "mode", "per-core Mpps",
              "verified", "injected", "overhead");
  std::vector<nnn::bench::BenchRecord> records;
  for (int m = 0; m < 3; ++m) {
    const double pct = m == 0 ? 0.0 : overhead_pct(best[0], best[m]);
    std::printf("%-12s %14.3f %12llu %10llu %9.2f%%\n", mode_name(kModes[m]),
                best[m].percore_mpps,
                static_cast<unsigned long long>(best[m].verified),
                static_cast<unsigned long long>(best[m].injected), pct);
    nnn::bench::BenchRecord rec;
    rec.name = std::string("fault/verify/") + mode_name(kModes[m]);
    rec.config["workers"] = static_cast<int64_t>(workers);
    rec.config["flows"] = static_cast<int64_t>(flows);
    rec.config["packet_size"] = 512;
    rec.config["injected"] = static_cast<int64_t>(best[m].injected);
    if (m != 0) rec.config["overhead_pct"] = pct;
    rec.ns_per_op =
        best[m].percore_mpps > 0 ? 1e3 / best[m].percore_mpps : 0;
    rec.ops_per_sec = best[m].percore_mpps * 1e6;
    records.push_back(std::move(rec));
  }
  std::printf("\nacceptance bar: disabled modes within 1%% of none "
              "(hook = one predictable branch)\n");

  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_fault", records)) {
    return 1;
  }
  return 0;
}
