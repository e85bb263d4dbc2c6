// State-layer ablation: does ISP-scale cookie state hold its budgets?
//
// Phases, each one JSON record:
//   state/table/build      — DescriptorStore at N entries: build rate,
//                            bytes/descriptor (budget: <= 160 B
//                            amortized, hot midstates excluded), index
//                            probe p99, process RSS.
//   state/verify/local     — single-descriptor verify against the
//                            verifier's own table, read through the
//                            hot tier like a published one: the
//                            in-run stand-in for BENCH_crypto.json's
//                            BM_CookieVerify figure. Comparing within
//                            one run factors out machine drift.
//   state/verify/zipf_hot  — external-table mode over the N-entry
//                            store under a Zipf access stream: the
//                            hot tier keeps midstates for the working
//                            set, tail hits pay rehydration.
//                            Acceptance: within 5% of local baseline.
//                            Also reports hot-tier bytes per resident
//                            entry (budget: <= 176 B).
//   state/verify/epoch_churn — same stream while the table epoch flips
//                            every 64 Ki packets, forcing hot-tier
//                            revalidation sweeps.
//   state/replay/insert    — M uuids through the wheel-based
//                            ReplayCache at a rate that keeps the
//                            whole horizon resident: ns/insert,
//                            bytes/uuid, wheel occupancy, purge scans.
//
// Usage: ablation_state [descriptors] [replay_uuids] [zipf_packets]
//                       [--json out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "cookies/cookie.h"
#include "cookies/descriptor_store.h"
#include "cookies/descriptor_table.h"
#include "cookies/generator.h"
#include "cookies/replay_cache.h"
#include "cookies/verifier.h"
#include "state/flat_table.h"
#include "state/mem.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/samplers.h"

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

double rss_mb() {
  return static_cast<double>(nnn::state::resident_bytes()) / (1024.0 * 1024.0);
}

/// Deterministic 32-byte key per id, so minting and the store agree
/// without holding N descriptors in memory twice.
nnn::util::Bytes key_of(nnn::cookies::CookieId id) {
  nnn::util::Bytes key(32);
  uint64_t x = nnn::state::mix_hash(id);
  for (size_t i = 0; i < key.size(); i += 8) {
    x = nnn::state::mix_hash(x + i);
    std::memcpy(key.data() + i, &x, 8);
  }
  return key;
}

nnn::cookies::CookieDescriptor bench_descriptor(nnn::cookies::CookieId id) {
  nnn::cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key = key_of(id);
  d.service_data = "Boost";
  return d;
}

nnn::cookies::Cookie mint(nnn::cookies::CookieId id,
                          const nnn::util::Bytes& key,
                          nnn::cookies::CookieTime ts, nnn::util::Rng& rng) {
  nnn::cookies::Cookie c;
  c.cookie_id = id;
  c.uuid = nnn::crypto::Uuid::generate(rng);
  c.timestamp = ts;
  c.signature = c.compute_tag(nnn::util::BytesView(key));
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  size_t descriptors = 1'000'000;
  size_t replay_uuids = 10'000'000;
  size_t zipf_packets = 1'000'000;
  if (argc > 1) descriptors = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) replay_uuids = static_cast<size_t>(std::atoll(argv[2]));
  if (argc > 3) zipf_packets = static_cast<size_t>(std::atoll(argv[3]));
  std::vector<nnn::bench::BenchRecord> records;

  const double rss_start_mb = rss_mb();
  std::printf("=== State layer at scale ===\n");
  std::printf("descriptors=%zu replay_uuids=%zu zipf_packets=%zu "
              "(rss %.1f MB at start)\n\n",
              descriptors, replay_uuids, zipf_packets, rss_start_mb);

  // --- Phase 1: descriptor store build + footprint ------------------
  nnn::cookies::DescriptorStore store;
  {
    const auto t0 = Clock::now();
    store.reserve(descriptors);
    for (nnn::cookies::CookieId id = 1;
         id <= static_cast<nnn::cookies::CookieId>(descriptors); ++id) {
      store.upsert(bench_descriptor(id));
    }
    const double ns = elapsed_ns(t0, Clock::now());
    const double bytes_per =
        static_cast<double>(store.memory_bytes()) /
        static_cast<double>(store.size());
    const auto probes = store.probe_stats(4096);
    std::printf("table/build    %9.1f ns/descriptor  %6.1f B/descriptor  "
                "probe p99 %u  rss %.1f MB\n",
                ns / static_cast<double>(descriptors), bytes_per,
                probes.p99, rss_mb());
    nnn::bench::BenchRecord rec;
    rec.name = "state/table/build";
    rec.config["descriptors"] = static_cast<int64_t>(descriptors);
    rec.config["bytes_per_descriptor"] = bytes_per;
    rec.config["probe_p99"] = static_cast<int64_t>(probes.p99);
    rec.config["probe_mean"] = probes.mean;
    rec.config["rss_mb"] = rss_mb();
    rec.ns_per_op = ns / static_cast<double>(descriptors);
    rec.ops_per_sec = 1e9 / rec.ns_per_op;
    records.push_back(std::move(rec));
  }

  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  const nnn::cookies::CookieTime ts =
      nnn::cookies::to_cookie_time(clock.now());

  // --- Phase 2: local baseline (the BM_CookieVerify shape) ---------
  // One descriptor in the verifier's own table: after the first hit
  // every verify is a hot-tier hit, as for a published table.
  // Same stream length and warmup split as the Zipf phase, so both
  // sides carry the same replay-cache cache-pressure: at 10M-uuid
  // scale the uuid table dominates ns/verify variance, and a short
  // baseline would flatter itself with an L2-resident cache.
  const size_t warmup = zipf_packets / 4;
  const size_t measured = zipf_packets - warmup;
  double local_ns = 0;
  {
    nnn::cookies::CookieVerifier local(clock);
    local.add_descriptor(bench_descriptor(1));
    const nnn::util::Bytes key = key_of(1);
    nnn::util::Rng rng(0xBA5E);
    std::vector<nnn::cookies::Cookie> batch;
    batch.reserve(zipf_packets);
    for (size_t i = 0; i < zipf_packets; ++i) {
      batch.push_back(mint(1, key, ts, rng));
    }
    for (size_t i = 0; i < warmup; ++i) {
      if (!local.verify(batch[i]).ok()) std::abort();
    }
    const auto t0 = Clock::now();
    for (size_t i = warmup; i < zipf_packets; ++i) {
      if (!local.verify(batch[i]).ok()) std::abort();
    }
    local_ns = elapsed_ns(t0, Clock::now()) / static_cast<double>(measured);
    std::printf("verify/local   %9.1f ns/verify (in-run baseline; "
                "BENCH_crypto.json tracks the canonical figure)\n",
                local_ns);
    nnn::bench::BenchRecord rec;
    rec.name = "state/verify/local";
    rec.config["ops"] = static_cast<int64_t>(measured);
    rec.ns_per_op = local_ns;
    rec.ops_per_sec = 1e9 / local_ns;
    records.push_back(std::move(rec));
  }

  // --- Phase 3: external-table Zipf stream through the hot tier -----
  nnn::cookies::DescriptorTable table(1, store);
  table.set_epoch(1);
  nnn::cookies::CookieVerifier verifier(clock);
  verifier.set_external_table(&table);
  double zipf_ns = 0;
  {
    // s = 1.4 matches the workload::PreferenceSampler default: a
    // heavy-tailed working set that mostly fits the hot budget, with
    // a real tail of cold rehydrating hits.
    nnn::util::Rng shuffle_rng(0x5EED);
    const nnn::workload::ZipfAccess access(descriptors, 1.4, shuffle_rng);
    nnn::util::Rng rng(0x21BF);
    verifier.configure_external_replay(zipf_packets + 64);
    std::vector<nnn::cookies::Cookie> stream;
    stream.reserve(zipf_packets);
    for (size_t i = 0; i < zipf_packets; ++i) {
      const auto id =
          static_cast<nnn::cookies::CookieId>(access.next(rng) + 1);
      stream.push_back(mint(id, key_of(id), ts, rng));
    }
    for (size_t i = 0; i < warmup; ++i) {
      if (!verifier.verify(stream[i]).ok()) std::abort();
    }
    const uint64_t warm_rehydrations = verifier.hot_tier().rehydrations();
    const auto t0 = Clock::now();
    for (size_t i = warmup; i < zipf_packets; ++i) {
      if (!verifier.verify(stream[i]).ok()) std::abort();
    }
    zipf_ns = elapsed_ns(t0, Clock::now()) / static_cast<double>(measured);
    const double overhead_pct =
        local_ns > 0 ? 100.0 * (zipf_ns - local_ns) / local_ns : 0;
    const double cold_share =
        100.0 *
        static_cast<double>(verifier.hot_tier().rehydrations() -
                            warm_rehydrations) /
        static_cast<double>(measured);
    const nnn::cookies::HotTier& hot = verifier.hot_tier();
    const double hot_bytes_per_entry =
        static_cast<double>(hot.memory_bytes()) /
        static_cast<double>(std::max<size_t>(hot.resident(), 1));
    std::printf("verify/zipf_hot %8.1f ns/verify  overhead %+.1f%% "
                "(bar: <5%%)  hot %zu resident at %.1f B  cold hits "
                "%.2f%%\n",
                zipf_ns, overhead_pct, hot.resident(), hot_bytes_per_entry,
                cold_share);
    nnn::bench::BenchRecord rec;
    rec.name = "state/verify/zipf_hot";
    rec.config["descriptors"] = static_cast<int64_t>(descriptors);
    rec.config["packets"] = static_cast<int64_t>(measured);
    rec.config["zipf_s"] = 1.4;
    rec.config["hot_budget"] = static_cast<int64_t>(
        verifier.hot_tier().budget());
    rec.config["hot_resident"] = static_cast<int64_t>(hot.resident());
    rec.config["hot_bytes_per_entry"] = hot_bytes_per_entry;
    rec.config["cold_hit_pct"] = cold_share;
    rec.config["overhead_pct"] = overhead_pct;
    rec.ns_per_op = zipf_ns;
    rec.ops_per_sec = 1e9 / zipf_ns;
    records.push_back(std::move(rec));
  }

  // --- Phase 3b: the deployment shape — flow bursts via verify_batch
  // Single-verify over a DRAM-resident working set pays the hot-entry
  // cache misses on every packet. Real traffic arrives as flow bursts
  // and the dataplane keys workers by descriptor, so verify_batch
  // touches each hot entry once per run of cookies. This row is what
  // a middlebox actually sees.
  {
    constexpr size_t kBurst = 16;
    constexpr size_t kBatch = 32;
    nnn::util::Rng shuffle_rng(0x5EED);
    const nnn::workload::ZipfAccess access(descriptors, 1.4, shuffle_rng);
    nnn::util::Rng rng(0x77AB);
    const size_t ops = zipf_packets / kBatch * kBatch;
    verifier.configure_external_replay(ops + 64);
    std::vector<nnn::cookies::Cookie> stream;
    stream.reserve(ops);
    while (stream.size() < ops) {
      const auto id =
          static_cast<nnn::cookies::CookieId>(access.next(rng) + 1);
      const nnn::util::Bytes key = key_of(id);
      for (size_t k = 0; k < kBurst && stream.size() < ops; ++k) {
        stream.push_back(mint(id, key, ts, rng));
      }
    }
    std::vector<nnn::cookies::VerifyResult> results(kBatch);
    const size_t burst_warmup = ops / 4 / kBatch * kBatch;
    for (size_t i = 0; i < burst_warmup; i += kBatch) {
      verifier.verify_batch({stream.data() + i, kBatch}, results);
    }
    const auto t0 = Clock::now();
    for (size_t i = burst_warmup; i < ops; i += kBatch) {
      verifier.verify_batch({stream.data() + i, kBatch}, results);
      for (const auto& r : results) {
        if (!r.ok()) std::abort();
      }
    }
    const double burst_ns = elapsed_ns(t0, Clock::now()) /
                            static_cast<double>(ops - burst_warmup);
    const double overhead_pct =
        local_ns > 0 ? 100.0 * (burst_ns - local_ns) / local_ns : 0;
    std::printf("verify/zipf_burst %6.1f ns/verify  %+.1f%% vs local "
                "(burst %zu, batch %zu)\n",
                burst_ns, overhead_pct, kBurst, kBatch);
    nnn::bench::BenchRecord rec;
    rec.name = "state/verify/zipf_burst";
    rec.config["descriptors"] = static_cast<int64_t>(descriptors);
    rec.config["packets"] = static_cast<int64_t>(ops - burst_warmup);
    rec.config["burst"] = static_cast<int64_t>(kBurst);
    rec.config["batch"] = static_cast<int64_t>(kBatch);
    rec.config["overhead_pct"] = overhead_pct;
    rec.ns_per_op = burst_ns;
    rec.ops_per_sec = 1e9 / burst_ns;
    records.push_back(std::move(rec));
  }

  // --- Phase 4: epoch churn — revalidation sweeps under table swaps -
  {
    nnn::cookies::DescriptorTable shadow(1, store);
    nnn::util::Rng shuffle_rng(0x5EED);
    const nnn::workload::ZipfAccess access(descriptors, 1.4, shuffle_rng);
    nnn::util::Rng rng(0xC4A2);
    const size_t ops = zipf_packets / 2;
    constexpr size_t kSwapEvery = 64 * 1024;
    verifier.configure_external_replay(ops + 64);
    std::vector<nnn::cookies::Cookie> stream;
    stream.reserve(ops);
    for (size_t i = 0; i < ops; ++i) {
      const auto id =
          static_cast<nnn::cookies::CookieId>(access.next(rng) + 1);
      stream.push_back(mint(id, key_of(id), ts, rng));
    }
    uint64_t epoch = 1;
    const nnn::cookies::DescriptorTable* tables[2] = {&table, &shadow};
    const auto t0 = Clock::now();
    for (size_t i = 0; i < ops; ++i) {
      if (i % kSwapEvery == 0) {
        ++epoch;
        auto* next = const_cast<nnn::cookies::DescriptorTable*>(
            tables[epoch % 2]);
        next->set_epoch(epoch);
        verifier.set_external_table(next);
      }
      if (!verifier.verify(stream[i]).ok()) std::abort();
    }
    const double churn_ns =
        elapsed_ns(t0, Clock::now()) / static_cast<double>(ops);
    const double delta_pct =
        zipf_ns > 0 ? 100.0 * (churn_ns - zipf_ns) / zipf_ns : 0;
    std::printf("verify/epoch_churn %5.1f ns/verify  %+.1f%% vs zipf_hot "
                "(swap every %zu packets)\n",
                churn_ns, delta_pct, kSwapEvery);
    nnn::bench::BenchRecord rec;
    rec.name = "state/verify/epoch_churn";
    rec.config["packets"] = static_cast<int64_t>(ops);
    rec.config["swap_every"] = static_cast<int64_t>(kSwapEvery);
    rec.config["delta_vs_zipf_pct"] = delta_pct;
    rec.ns_per_op = churn_ns;
    rec.ops_per_sec = 1e9 / churn_ns;
    records.push_back(std::move(rec));
  }

  // --- Phase 5: replay wheel under a full-horizon uuid stream -------
  {
    // 1 µs per insert (1M/s) against the 5 s NCT: the first 5M uuids
    // fill the horizon, the rest run at steady state — every insert
    // retires ~one expired entry, so ns/insert includes the wheel's
    // amortized O(1) expiry work, and `resident` settles at
    // rate x horizon.
    constexpr nnn::util::Timestamp kHorizon = 5 * nnn::util::kSecond;
    const nnn::util::Timestamp step =
        std::max<nnn::util::Timestamp>(1, kHorizon / replay_uuids);
    nnn::cookies::ReplayCache cache(kHorizon, replay_uuids + 64);
    nnn::util::Rng rng(0x9E9E);
    std::vector<nnn::crypto::Uuid> uuids(std::min<size_t>(replay_uuids,
                                                          1 << 20));
    nnn::util::Timestamp now = 0;
    const auto t0 = Clock::now();
    size_t done = 0;
    while (done < replay_uuids) {
      const size_t chunk = std::min(uuids.size(), replay_uuids - done);
      for (size_t i = 0; i < chunk; ++i) {
        uuids[i] = nnn::crypto::Uuid::generate(rng);
      }
      for (size_t i = 0; i < chunk; ++i) {
        if (!cache.insert(uuids[i], now)) std::abort();
        now += step;
      }
      done += chunk;
    }
    const double ns = elapsed_ns(t0, Clock::now());
    // uuid generation rides inside the loop; charge it separately.
    nnn::util::Rng rng2(0x9E9E);
    const auto g0 = Clock::now();
    for (size_t i = 0; i < uuids.size(); ++i) {
      uuids[i] = nnn::crypto::Uuid::generate(rng2);
    }
    const double gen_ns =
        elapsed_ns(g0, Clock::now()) / static_cast<double>(uuids.size());
    const double insert_ns =
        ns / static_cast<double>(replay_uuids) - gen_ns;
    const double bytes_per =
        static_cast<double>(cache.memory_bytes()) /
        static_cast<double>(cache.size());
    std::printf("replay/insert  %9.1f ns/insert  %6.1f B/uuid  "
                "%zu resident  wheel %zu/%zu slots  %llu purge scans  "
                "rss %.1f MB\n",
                insert_ns, bytes_per, cache.size(),
                cache.wheel_occupied_slots(), cache.wheel_slots(),
                static_cast<unsigned long long>(cache.purge_scans()),
                rss_mb());
    nnn::bench::BenchRecord rec;
    rec.name = "state/replay/insert";
    rec.config["uuids"] = static_cast<int64_t>(replay_uuids);
    rec.config["horizon_s"] = 5;
    rec.config["resident"] = static_cast<int64_t>(cache.size());
    rec.config["bytes_per_uuid"] = bytes_per;
    rec.config["wheel_occupied_slots"] =
        static_cast<int64_t>(cache.wheel_occupied_slots());
    rec.config["purge_scans"] = static_cast<int64_t>(cache.purge_scans());
    rec.config["capacity_evictions"] =
        static_cast<int64_t>(cache.capacity_evictions());
    rec.config["rss_mb"] = rss_mb();
    rec.ns_per_op = insert_ns;
    rec.ops_per_sec = insert_ns > 0 ? 1e9 / insert_ns : 0;
    records.push_back(std::move(rec));
  }

  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_state", records)) {
    return 1;
  }
  return 0;
}
