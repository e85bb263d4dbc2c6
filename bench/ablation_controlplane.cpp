// Control-plane ablation: how fast does descriptor state propagate,
// and what does an epoch table swap cost the verify hot path?
//
// Part 1 — propagation latency (simulated): a SyncClient polls a
// SyncServer over impaired sim::Links (loss + jitter). For each
// revocation we measure sim time from append_revoke() to the version
// landing in the client's published table. Loss pushes the tail out
// through timeout/backoff cycles; the table quantifies it.
//
// Part 2 — swap overhead (real threads): a Dataplane's workers verify
// a cookie workload while a control thread republishes the descriptor
// table as fast as it can (a swap rate far beyond any real control
// plane). Acceptance gate: per-core throughput during constant
// swapping within 5% of steady state — the reader side of the epoch
// protocol is two uncontended seq_cst ops per 32-packet burst.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "controlplane/table_mirror.h"
#include "dataplane/service_registry.h"
#include "runtime/dataplane.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "util/clock.h"
#include "workload/packet_gen.h"

namespace {

using nnn::util::kMillisecond;
using nnn::util::kSecond;

// --- Part 1: propagation latency over impaired links ---------------

struct PropagationResult {
  double loss_rate = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  uint64_t retries = 0;
  uint64_t dropped = 0;
};

nnn::cookies::CookieDescriptor bench_descriptor(nnn::cookies::CookieId id) {
  nnn::cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id));
  d.service_data = "Boost";
  return d;
}

PropagationResult run_propagation(double loss_rate, size_t revocations) {
  nnn::sim::EventLoop loop;
  nnn::controlplane::DescriptorLog log;
  nnn::controlplane::SyncServer server(log);
  nnn::controlplane::TablePublisher tables;
  nnn::controlplane::SyncClient* client_ptr = nullptr;

  nnn::sim::Link::Config impaired;
  impaired.rate_bps = 10e6;
  impaired.prop_delay = 10 * kMillisecond;  // 20 ms RTT
  impaired.loss_rate = loss_rate;
  impaired.delay_jitter = 2 * kMillisecond;

  impaired.impairment_seed = 0xc0;
  nnn::sim::Link to_client(loop, impaired, [&](nnn::net::Packet p) {
    client_ptr->on_datagram(nnn::util::BytesView(p.payload));
  });
  impaired.impairment_seed = 0xc1;
  nnn::sim::Link to_server(loop, impaired, [&](nnn::net::Packet p) {
    if (auto reply = server.handle(nnn::util::BytesView(p.payload))) {
      nnn::net::Packet r;
      r.payload = std::move(*reply);
      to_client.send(std::move(r));
    }
  });

  nnn::controlplane::SyncClient::Config config;
  config.poll_interval = 100 * kMillisecond;
  config.response_timeout = 250 * kMillisecond;
  config.backoff_base = 250 * kMillisecond;
  nnn::controlplane::SyncClient client(
      loop.clock(), tables, config, [&](nnn::util::Bytes request) {
        nnn::net::Packet p;
        p.payload = std::move(request);
        to_server.send(std::move(p));
      });
  client_ptr = &client;

  // Tick pump: a 10 ms driver loop, the cadence a middlebox's control
  // thread would realistically run.
  std::function<void()> pump = [&] {
    client.tick();
    loop.after(10 * kMillisecond, pump);
  };

  for (nnn::cookies::CookieId id = 1; id <= revocations; ++id) {
    log.append_add(bench_descriptor(id));
  }
  client.start();
  pump();
  loop.run_until(loop.now() + 5 * kSecond);  // settle the bootstrap

  std::vector<double> latencies_ms;
  latencies_ms.reserve(revocations);
  for (nnn::cookies::CookieId id = 1; id <= revocations; ++id) {
    const uint64_t target = log.append_revoke(id);
    const nnn::util::Timestamp issued = loop.now();
    const nnn::util::Timestamp deadline = issued + 60 * kSecond;
    while (client.applied_version() < target && loop.now() < deadline) {
      loop.step();
    }
    latencies_ms.push_back(
        static_cast<double>(loop.now() - issued) / kMillisecond);
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  PropagationResult r;
  r.loss_rate = loss_rate;
  double sum = 0;
  for (const double v : latencies_ms) sum += v;
  r.mean_ms = sum / static_cast<double>(latencies_ms.size());
  r.p50_ms = latencies_ms[latencies_ms.size() / 2];
  r.p99_ms = latencies_ms[latencies_ms.size() * 99 / 100];
  r.max_ms = latencies_ms.back();
  r.retries = client.retries();
  r.dropped = to_server.dropped() + to_client.dropped();
  return r;
}

// --- Part 2: verify throughput during table swaps ------------------

struct SwapResult {
  double percore_mpps = 0;
  uint64_t swaps = 0;
  uint64_t verified = 0;
};

SwapResult run_swap(bool swapping, size_t workers, size_t flows,
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

  // Descriptor state arrives through the control plane: a mirror
  // builds the immutable table, the publisher swaps it in.
  nnn::controlplane::TablePublisher tables;
  plane.bind_table_publisher(tables);
  nnn::controlplane::TableMirror mirror;
  const auto table_descriptors = generator.descriptors();
  mirror.reset(1, table_descriptors, {});
  tables.publish(mirror.build());

  auto batch = generator.make_batch(flows);

  plane.start();
  std::atomic<bool> stop_swapping{false};
  std::thread swapper;
  if (swapping) {
    swapper = std::thread([&] {
      // The real cadence: a one-update delta arrives, the mirror
      // applies it, and the rebuilt table is swapped in. Re-adding
      // the same descriptor keeps verify behaviour identical while
      // every publish still copies the full table and retires the
      // old one.
      uint64_t version = 1;
      while (!stop_swapping.load(std::memory_order_acquire)) {
        nnn::controlplane::Update update;
        update.version = ++version;
        update.op = nnn::controlplane::UpdateOp::kAdd;
        update.id = table_descriptors.front().cookie_id;
        update.descriptor = table_descriptors.front();
        mirror.apply(update);
        tables.publish(mirror.build());
        tables.try_reclaim();
      }
    });
  }

  for (auto& packet : batch) {
    nnn::runtime::PacketHandle h = plane.make_packet();
    while (!h) h = plane.make_packet();  // workers are draining slots
    *h = std::move(packet);
    plane.ingest_blocking(std::move(h));
  }
  plane.drain();
  if (swapping) {
    stop_swapping.store(true, std::memory_order_release);
    swapper.join();
  }
  plane.stop();
  tables.try_reclaim();  // workers parked: everything must free

  const auto snap = plane.snapshot();
  SwapResult r;
  const double critical_us = static_cast<double>(snap.max_busy_micros());
  r.percore_mpps =
      critical_us > 0
          ? static_cast<double>(snap.totals().packets) / critical_us
          : 0;
  r.swaps = tables.epoch();
  r.verified = plane.total_verified();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  size_t revocations = 200;
  size_t flows = 10000;  // x50 packets per swap run
  if (argc > 1) revocations = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) flows = static_cast<size_t>(std::atoll(argv[2]));
  std::vector<nnn::bench::BenchRecord> records;

  std::printf("=== Control plane: revocation propagation latency ===\n");
  std::printf("snapshot/delta sync over sim links (20 ms RTT, 2 ms "
              "jitter), 100 ms poll,\n250 ms timeout, %zu revocations "
              "measured per loss rate\n\n",
              revocations);
  std::printf("%-8s %10s %10s %10s %10s %9s %9s\n", "loss", "mean ms",
              "p50 ms", "p99 ms", "max ms", "retries", "dropped");
  for (const double loss : {0.0, 0.01, 0.10}) {
    const PropagationResult r = run_propagation(loss, revocations);
    std::printf("%-8.2f %10.1f %10.1f %10.1f %10.1f %9llu %9llu\n",
                r.loss_rate, r.mean_ms, r.p50_ms, r.p99_ms, r.max_ms,
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.dropped));
    nnn::bench::BenchRecord rec;
    rec.name = "controlplane/propagation/loss=" + std::to_string(loss);
    rec.config["loss_rate"] = loss;
    rec.config["poll_ms"] = 100;
    rec.config["rtt_ms"] = 20;
    rec.config["revocations"] = static_cast<int64_t>(revocations);
    rec.config["p99_ms"] = r.p99_ms;
    rec.config["max_ms"] = r.max_ms;
    // One "op" is one revocation reaching the enforcement point.
    rec.ns_per_op = r.mean_ms * 1e6;
    rec.ops_per_sec = r.mean_ms > 0 ? 1e3 / r.mean_ms : 0;
    records.push_back(std::move(rec));
  }

  std::printf("\n=== Epoch swap overhead on the verify hot path ===\n");
  const size_t workers = 2;
  std::printf("%zu workers, 512 B packets, %zu flows x50, descriptor "
              "tables republished\ncontinuously vs not at all; per-core "
              "= packets / max worker CPU time,\nbest of 5 runs per "
              "mode, interleaved\n\n",
              workers, flows);
  // Interleave reps so machine drift hits both modes equally; keep the
  // best per-core figure (standard practice: the least-perturbed run).
  SwapResult steady, swapped;
  for (int rep = 0; rep < 5; ++rep) {
    const SwapResult s = run_swap(false, workers, flows, 1000);
    if (s.percore_mpps > steady.percore_mpps) steady = s;
    const SwapResult d = run_swap(true, workers, flows, 1000);
    if (d.percore_mpps > swapped.percore_mpps) swapped = d;
  }
  const double delta_pct =
      steady.percore_mpps > 0
          ? 100.0 * (steady.percore_mpps - swapped.percore_mpps) /
                steady.percore_mpps
          : 0;
  std::printf("%-14s %14s %12s %12s\n", "mode", "per-core Mpps", "swaps",
              "verified");
  std::printf("%-14s %14.3f %12llu %12llu\n", "steady",
              steady.percore_mpps,
              static_cast<unsigned long long>(steady.swaps),
              static_cast<unsigned long long>(steady.verified));
  std::printf("%-14s %14.3f %12llu %12llu\n", "during-swap",
              swapped.percore_mpps,
              static_cast<unsigned long long>(swapped.swaps),
              static_cast<unsigned long long>(swapped.verified));
  std::printf("swap overhead: %.1f%% (acceptance bar: within 5%%)\n",
              delta_pct);

  for (const auto* r : {&steady, &swapped}) {
    nnn::bench::BenchRecord rec;
    const bool is_swap = (r == &swapped);
    rec.name = is_swap ? "controlplane/verify/during_swap"
                       : "controlplane/verify/steady";
    rec.config["workers"] = static_cast<int64_t>(workers);
    rec.config["flows"] = static_cast<int64_t>(flows);
    rec.config["packet_size"] = 512;
    rec.config["swaps"] = static_cast<int64_t>(r->swaps);
    if (is_swap) rec.config["overhead_pct"] = delta_pct;
    rec.ns_per_op = r->percore_mpps > 0 ? 1e3 / r->percore_mpps : 0;
    rec.ops_per_sec = r->percore_mpps * 1e6;
    records.push_back(std::move(rec));
  }

  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_controlplane",
                                    records)) {
    return 1;
  }
  return 0;
}
