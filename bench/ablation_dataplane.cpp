// Ablations over the dataplane design choices DESIGN.md calls out:
//   - the three per-packet task classes of §4.6 (search / search+verify
//     / map-only) measured in isolation;
//   - sniff-window depth (the daemon's "first 3 packets" choice);
//   - descriptor-table scale (does 100K descriptors slow the hot path?);
//   - replay-cache churn;
//   - flow-table churn at a steady live set (cost per new flow);
//   - cookie transport extraction cost per carrier (HTTP text parse vs
//     TLS binary parse vs IPv6 option vs UDP shim).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "cookies/replay_cache.h"
#include "cookies/transport.h"
#include "dataplane/hw_filter.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "net/tls.h"
#include "runtime/dataplane.h"
#include "runtime/mpsc_ring.h"
#include "runtime/spsc_ring.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/packet_gen.h"

namespace {

using nnn::cookies::Transport;

struct Plane {
  nnn::util::ManualClock clock{1000 * nnn::util::kSecond};
  nnn::cookies::CookieVerifier verifier{clock};
  nnn::dataplane::ServiceRegistry registry;
  nnn::dataplane::Middlebox middlebox{clock, verifier, registry};
  nnn::cookies::CookieDescriptor descriptor;

  explicit Plane(size_t descriptors = 1) {
    registry.bind("Boost", nnn::dataplane::PriorityAction{0});
    nnn::util::Rng rng(9);
    for (size_t i = 0; i < descriptors; ++i) {
      nnn::cookies::CookieDescriptor d;
      d.cookie_id = i + 1;
      d.key.resize(32);
      for (auto& b : d.key) b = static_cast<uint8_t>(rng.next_u64());
      d.service_data = "Boost";
      verifier.add_descriptor(d);
      if (i == 0) descriptor = d;
    }
  }
};

nnn::net::Packet plain_packet(uint32_t flow_id) {
  nnn::net::Packet p;
  p.tuple.src_ip = nnn::net::IpAddress::v4(0x0a000000u | flow_id);
  p.tuple.dst_ip = nnn::net::IpAddress::v4(151, 101, 0, 1);
  p.tuple.src_port = static_cast<uint16_t>(1024 + flow_id % 50000);
  p.tuple.dst_port = 443;
  p.wire_size = 512;
  return p;
}

/// Task (iii): established flow, pure table hit.
void BM_Task_MapOnly(benchmark::State& state) {
  Plane plane;
  nnn::cookies::CookieGenerator gen(plane.descriptor, plane.clock, 1);
  nnn::net::Packet request = plain_packet(1);
  request.tuple.proto = nnn::net::L4Proto::kUdp;
  nnn::cookies::attach(request, gen.generate(), Transport::kUdpHeader);
  plane.middlebox.process(request);
  nnn::net::Packet data = plain_packet(1);
  data.tuple.proto = nnn::net::L4Proto::kUdp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plane.middlebox.process(data));
  }
}
BENCHMARK(BM_Task_MapOnly);

/// Task (i): sniffing packets that carry no cookie.
/// `payload` bytes of TCP payload that is neither a TLS record nor an
/// HTTP request, so the carrier search reads it and finds nothing.
void BM_Task_SearchNoCookie(benchmark::State& state) {
  Plane plane;
  uint32_t flow_id = 100;
  nnn::net::Packet p = plain_packet(flow_id);
  p.payload.assign(static_cast<size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    // A fresh flow each time keeps the packet inside the sniff window;
    // advancing the clock lets the flow table expire old entries so
    // the benchmark measures steady state, not unbounded growth.
    plane.clock.advance(10 * nnn::util::kMillisecond);
    p.tuple = plain_packet(flow_id++).tuple;
    benchmark::DoNotOptimize(plane.middlebox.process(p));
  }
}
BENCHMARK(BM_Task_SearchNoCookie)->ArgName("payload")->Arg(0)->Arg(512);

/// Task (ii): search + full verification, per descriptor-table scale.
void BM_Task_SearchAndVerify(benchmark::State& state) {
  Plane plane(static_cast<size_t>(state.range(0)));
  nnn::cookies::CookieGenerator gen(plane.descriptor, plane.clock, 2);
  uint32_t flow_id = 1;
  std::vector<nnn::net::Packet> batch;
  size_t next = batch.size();
  for (auto _ : state) {
    if (next >= batch.size()) {
      state.PauseTiming();
      batch.clear();
      for (int i = 0; i < 1024; ++i) {
        nnn::net::Packet p = plain_packet(flow_id++);
        p.tuple.proto = nnn::net::L4Proto::kUdp;
        nnn::cookies::attach(p, gen.generate(), Transport::kUdpHeader);
        batch.push_back(std::move(p));
      }
      next = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(plane.middlebox.process(batch[next++]));
  }
}
BENCHMARK(BM_Task_SearchAndVerify)
    ->ArgName("descriptors")
    ->Arg(1)
    ->Arg(1000)
    ->Arg(100000);

/// Sniff-window depth: how much does inspecting 1 vs 3 vs 8 packets of
/// every cookie-less flow cost end to end?
void BM_SniffWindowDepth(benchmark::State& state) {
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::dataplane::ServiceRegistry registry;
  nnn::dataplane::Middlebox::Config config;
  config.sniff_window = static_cast<uint32_t>(state.range(0));
  nnn::dataplane::Middlebox middlebox(clock, verifier, registry, config);
  uint32_t flow_id = 1;
  for (auto _ : state) {
    clock.advance(50 * nnn::util::kMillisecond);  // bound table growth
    // 10-packet cookie-less flow.
    for (int i = 0; i < 10; ++i) {
      nnn::net::Packet p = plain_packet(flow_id);
      benchmark::DoNotOptimize(middlebox.process(p));
    }
    ++flow_id;
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_SniffWindowDepth)->ArgName("window")->Arg(1)->Arg(3)->Arg(8);

/// Replay-cache insert under steady churn.
void BM_ReplayCacheInsert(benchmark::State& state) {
  nnn::cookies::ReplayCache cache(5 * nnn::util::kSecond);
  nnn::util::Rng rng(5);
  nnn::util::Timestamp now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.insert(nnn::crypto::Uuid::generate(rng), now));
    now += 100;  // 10K cookies/second
  }
}
BENCHMARK(BM_ReplayCacheInsert);

/// Cookie extraction cost per transport carrier.
void BM_ExtractPerTransport(benchmark::State& state) {
  const auto transport = static_cast<Transport>(state.range(0));
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  nnn::cookies::CookieGenerator gen(descriptor, clock, 3);

  nnn::net::Packet packet;
  switch (transport) {
    case Transport::kHttpHeader: {
      nnn::net::http::Request r("GET", "/", "example.com");
      const std::string text = r.serialize();
      packet.payload.assign(text.begin(), text.end());
      break;
    }
    case Transport::kTlsExtension: {
      nnn::net::tls::ClientHello hello;
      hello.set_server_name("example.com");
      packet.payload = hello.serialize_record();
      break;
    }
    case Transport::kIpv6Extension:
      packet.ipv6 = true;
      break;
    case Transport::kUdpHeader:
      packet.tuple.proto = nnn::net::L4Proto::kUdp;
      break;
    case Transport::kTcpOption:
      packet.tuple.proto = nnn::net::L4Proto::kTcp;
      break;
    case Transport::kQuicTransportParam: {
      packet.tuple.proto = nnn::net::L4Proto::kUdp;
      nnn::net::QuicHeader header;
      header.long_header = true;
      header.scid = 1;
      header.dcid = 2;
      packet.quic = std::move(header);
      break;
    }
  }
  nnn::cookies::attach(packet, gen.generate(), transport);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nnn::cookies::extract(packet));
  }
}
BENCHMARK(BM_ExtractPerTransport)
    ->ArgName("transport")
    ->Arg(static_cast<int>(Transport::kHttpHeader))
    ->Arg(static_cast<int>(Transport::kTlsExtension))
    ->Arg(static_cast<int>(Transport::kIpv6Extension))
    ->Arg(static_cast<int>(Transport::kUdpHeader))
    ->Arg(static_cast<int>(Transport::kTcpOption))
    ->Arg(static_cast<int>(Transport::kQuicTransportParam));

/// Scale-out steering (§4.6): per-packet cost of the balancer's
/// worker pick, Dataplane::route, under the two load-balancing
/// policies. Descriptor affinity pays an extra cookie peek on
/// cookie-bearing packets; that is the price of a sound distributed
/// use-once check. route() is a pure query, so the plane never starts.
void BM_DataplaneRoute(benchmark::State& state) {
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::dataplane::ServiceRegistry registry;
  nnn::runtime::Dataplane::Config config;
  config.policy = static_cast<nnn::dataplane::DispatchPolicy>(state.range(0));
  config.pool.workers = static_cast<size_t>(state.range(1));
  nnn::runtime::Dataplane plane(clock, registry, config);
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  nnn::cookies::CookieGenerator gen(descriptor, clock, 1);

  constexpr size_t kBatch = 512;
  std::vector<nnn::net::Packet> batch;
  for (uint32_t i = 0; i < kBatch; ++i) {
    nnn::net::Packet p = plain_packet(i + 1);
    p.tuple.proto = nnn::net::L4Proto::kUdp;
    if (i % 10 == 0) {  // every 10th packet opens a cookie flow
      nnn::cookies::attach(p, gen.generate(),
                           nnn::cookies::Transport::kUdpHeader);
    }
    batch.push_back(std::move(p));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plane.route(batch[next]));
    next = (next + 1) % kBatch;
  }
}
BENCHMARK(BM_DataplaneRoute)
    ->ArgNames({"policy", "workers"})
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({0, 16})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16});

/// Hardware pre-filter (§4.6): decision cost per packet class.
void BM_HwFilterDecision(benchmark::State& state) {
  const int scenario = static_cast<int>(state.range(0));
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::dataplane::HardwareFilter filter(
      clock, nnn::cookies::kNetworkCoherencyTime, {});
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = 1;
  descriptor.key.assign(32, 0x42);
  filter.learn_id(1);
  nnn::cookies::CookieGenerator gen(descriptor, clock, 1);

  nnn::net::Packet packet;
  switch (scenario) {
    case 0:  // plain packet, fast path
      packet = plain_packet(1);
      break;
    case 1: {  // known cookie -> software
      packet = plain_packet(2);
      packet.tuple.proto = nnn::net::L4Proto::kUdp;
      nnn::cookies::attach(packet, gen.generate(),
                           nnn::cookies::Transport::kUdpHeader);
      break;
    }
    default: {  // unknown id -> rejected in "hardware"
      nnn::cookies::CookieDescriptor rogue = descriptor;
      rogue.cookie_id = 99;
      nnn::cookies::CookieGenerator rogue_gen(rogue, clock, 2);
      packet = plain_packet(3);
      packet.tuple.proto = nnn::net::L4Proto::kUdp;
      nnn::cookies::attach(packet, rogue_gen.generate(),
                           nnn::cookies::Transport::kUdpHeader);
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.classify(packet));
  }
}
BENCHMARK(BM_HwFilterDecision)
    ->ArgName("scenario")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

/// Mid-flow cookie inspection (§4.2 app-assisted bursts): what the
/// per-packet search on every best-effort packet costs vs the default
/// sniff-3 deployment.
void BM_MidFlowInspection(benchmark::State& state) {
  const bool mid_flow = state.range(0) != 0;
  nnn::util::ManualClock clock(1000 * nnn::util::kSecond);
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::dataplane::ServiceRegistry registry;
  nnn::dataplane::Middlebox::Config config;
  config.mid_flow_cookies = mid_flow;
  nnn::dataplane::Middlebox middlebox(clock, verifier, registry, config);
  // One long-lived cookie-less flow, past the sniff window.
  nnn::net::Packet p = plain_packet(1);
  for (int i = 0; i < 5; ++i) middlebox.process(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(middlebox.process(p));
  }
}
BENCHMARK(BM_MidFlowInspection)
    ->ArgName("mid_flow")
    ->Arg(0)
    ->Arg(1);

// --- runtime: the threaded dataplane's ring hot path ---------------
// (scaling curves live in bench/ablation_runtime; these isolate the
// per-packet queueing cost the runtime adds on top of the middlebox)

/// SPSC ring enqueue+dequeue cost per element, single-threaded — the
/// pure protocol overhead with no cross-core traffic.
void BM_Runtime_RingPushPop(benchmark::State& state) {
  nnn::runtime::SpscRing<nnn::net::Packet> ring(1024);
  nnn::net::Packet packet = plain_packet(1);
  nnn::net::Packet out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(std::move(packet)));
    benchmark::DoNotOptimize(ring.try_pop(out));
    packet = std::move(out);  // recycle the buffers
  }
}
BENCHMARK(BM_Runtime_RingPushPop);

/// Batch-size sweep: per-packet dequeue cost as the consumer's burst
/// grows. The worker default of 32 is where the curve flattens —
/// larger bursts buy little and cost latency.
void BM_Runtime_RingBatchSweep(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  nnn::runtime::SpscRing<nnn::net::Packet> ring(1024);
  std::vector<nnn::net::Packet> out(batch);
  uint64_t packets = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      ring.try_push(plain_packet(static_cast<uint32_t>(i)));
    }
    benchmark::DoNotOptimize(ring.pop_batch(out.data(), batch));
    packets += batch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(packets));
}
BENCHMARK(BM_Runtime_RingBatchSweep)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128);

/// MPSC (verdict/ingress) ring cost, uncontended: what a worker pays
/// to publish one verdict record.
void BM_Runtime_MpscPushPop(benchmark::State& state) {
  nnn::runtime::MpscRing<uint64_t> ring(1024);
  uint64_t v = 0, out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(v++));
    benchmark::DoNotOptimize(ring.try_pop(out));
  }
}
BENCHMARK(BM_Runtime_MpscPushPop);

/// Flow-table scale: lookup cost as the table grows.
void BM_FlowTableTouch(benchmark::State& state) {
  nnn::dataplane::FlowTable table;
  const size_t flows = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < flows; ++i) {
    nnn::net::Packet p = plain_packet(static_cast<uint32_t>(i));
    table.bind(nnn::net::FlowKey::from_tuple(p.tuple), 0);
  }
  nnn::net::Packet probe = plain_packet(static_cast<uint32_t>(flows / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        *table.bind(nnn::net::FlowKey::from_tuple(probe.tuple), 1));
  }
}
BENCHMARK(BM_FlowTableTouch)
    ->ArgName("flows")
    ->Arg(1000)
    ->Arg(100000)
    ->Arg(1000000);

/// Flow churn in the cookie_storm shape: every iteration binds a fresh
/// five-tuple and maps it with its reverse, which fills both halves of
/// one connection slot. The clock steps idle_timeout / `live` per flow,
/// so about `live` connections stay resident while the oldest idle
/// out; the `entries` counter reads that live set (about `live`; twice
/// that would mean a slot per direction again). Time per iteration is
/// ns per new flow; flow state that costs O(1) keeps it flat across
/// live-set sizes. A fixed iteration count keeps the warm-up (two
/// idle timeouts of churn) to one run per size.
void BM_FlowTableChurn(benchmark::State& state) {
  const auto live = static_cast<nnn::util::Timestamp>(state.range(0));
  const nnn::util::Timestamp idle =
      nnn::dataplane::FlowTable::kDefaultIdleTimeout;
  nnn::dataplane::FlowTable table(
      nnn::dataplane::FlowTable::kDefaultSniffWindow, idle);
  const nnn::dataplane::ServiceId service = 1;
  nnn::util::Timestamp now = 0;
  uint32_t next = 1;
  const auto churn = [&] {
    nnn::net::FiveTuple t;
    t.src_ip = nnn::net::IpAddress::v4(next++);
    t.dst_ip = nnn::net::IpAddress::v4(151, 101, 0, 1);
    t.src_port = 40000;
    t.dst_port = 443;
    const auto key = nnn::net::FlowKey::from_tuple(t);
    const auto flow = table.bind(key, now);
    table.map_flow(flow, service, now, /*include_reverse=*/true);
    benchmark::DoNotOptimize(*flow);
    now += idle / live;
  };
  for (nnn::util::Timestamp i = 0; i < 2 * live; ++i) churn();
  for (auto _ : state) churn();
  state.counters["entries"] = static_cast<double>(table.size());
}
BENCHMARK(BM_FlowTableChurn)
    ->ArgName("live")
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Iterations(1 << 20);

}  // namespace
