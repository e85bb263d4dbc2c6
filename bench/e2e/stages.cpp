#include "stages.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "cookies/cookie.h"
#include "cookies/descriptor_table.h"
#include "cookies/replay_cache.h"
#include "cookies/transport.h"
#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "quic/alias_table.h"

namespace nnnbench {

namespace {

/// Defeats dead-code elimination of the timed passes' results.
volatile uint64_t g_sink = 0;

/// Times one stage pass: `body` returns the calls it made.
template <class Body>
void timed(Tracer& tracer, const char* name, uint32_t parent, Body&& body) {
  const int64_t t0 = Tracer::now_ns();
  const uint64_t calls = body();
  tracer.add(name, parent, t0, Tracer::now_ns(), calls);
}

}  // namespace

StageResult stage_replay(const Workload& workload, uint64_t seed,
                         size_t packets, size_t round_packets,
                         const std::vector<int64_t>& round_starts,
                         const Rig& rig, Tracer& tracer) {
  using nnn::cookies::Cookie;
  using nnn::cookies::CookieId;
  StageResult result;
  nnn::util::ManualClock clock;
  // cookies.verify runs on `verifier`; dataplane.process on a whole
  // second shard, so neither sees the other's replay state.
  nnn::cookies::CookieVerifier verifier(clock);
  nnn::cookies::CookieVerifier shard_verifier(clock);
  nnn::dataplane::ServiceRegistry registry;
  registry.bind("Boost", nnn::dataplane::PriorityAction{0});
  nnn::dataplane::Middlebox::Config shard_config;
  shard_config.flow_idle_timeout = workload.flow_idle_timeout;
  nnn::dataplane::Middlebox shard(clock, shard_verifier, registry,
                                  shard_config);
  nnn::quic::CidAliasTable aliases;
  nnn::cookies::ReplayCache replay(nnn::cookies::kNetworkCoherencyTime);

  // Only the control path reads the publisher's table this way; nothing
  // publishes while the replay runs, so it cannot be reclaimed under us.
  const nnn::cookies::DescriptorTable* table =
      workload.external_table ? rig.publisher->peek() : nullptr;
  std::unordered_map<CookieId, nnn::util::Bytes> local_keys;
  const auto install =
      [&](const std::vector<nnn::cookies::CookieDescriptor>& descriptors) {
        for (const auto& descriptor : descriptors) {
          verifier.add_descriptor(descriptor);
          shard_verifier.add_descriptor(descriptor);
          local_keys[descriptor.cookie_id] = descriptor.key;
        }
      };
  if (table != nullptr) {
    verifier.set_external_table(table);
    shard_verifier.set_external_table(table);
  } else {
    install(local_descriptors(workload, seed));
  }

  const auto traffic = Traffic::create(workload, seed);
  Round round;
  std::vector<nnn::net::RawCookie> raws;
  std::vector<uint32_t> carriers;  // packet index per cookie carrier
  std::vector<Cookie> cookies;
  std::vector<nnn::util::Timestamp> cookie_at;
  std::vector<size_t> burst_cookies;  // first cookie of each packet burst
  std::unordered_map<CookieId, nnn::crypto::HmacKeySchedule> schedules;
  std::vector<const nnn::crypto::HmacKeySchedule*> schedule_of;
  std::vector<nnn::cookies::VerifyResult> verify_results;
  std::vector<nnn::net::Packet*> pointers;
  std::vector<nnn::dataplane::Verdict> verdicts(kBurst);
  uint64_t sink = 0;

  const uint32_t root = tracer.open("stage.replay", 0, Tracer::now_ns());
  const double gap_ns = 1e9 / workload.capacity_pps;
  int64_t start = kClockOrigin * 1000;
  for (size_t done = 0, r = 0; done < packets; ++r) {
    const size_t n = std::min(round_packets, packets - done);
    if (r < round_starts.size()) start = round_starts[r];
    install(generate_round(*traffic, round, n, start, workload.capacity_pps,
                           nullptr));

    // Untimed: find each stage's inputs the way the pipeline would.
    raws.clear();
    carriers.clear();
    cookies.clear();
    cookie_at.clear();
    burst_cookies.clear();
    for (size_t i = 0; i < n; ++i) {
      if (i % kBurst == 0) burst_cookies.push_back(cookies.size());
      const nnn::net::Packet& packet = round.packets[i];
      auto raw = packet.cookie_bytes();
      if (!raw) continue;
      raws.push_back(std::move(*raw));
      carriers.push_back(static_cast<uint32_t>(i));
      if (const auto extracted = nnn::cookies::extract(packet)) {
        cookies.push_back(extracted->stack.front());
        cookie_at.push_back(round.at_ns[i] / 1000);
      }
    }
    burst_cookies.push_back(cookies.size());
    schedules.clear();
    schedule_of.clear();
    for (const Cookie& cookie : cookies) {
      auto it = schedules.find(cookie.cookie_id);
      if (it == schedules.end()) {
        const nnn::util::Bytes key =
            table != nullptr ? descriptor_key(seed, cookie.cookie_id)
                             : local_keys[cookie.cookie_id];
        it = schedules
                 .emplace(cookie.cookie_id, nnn::crypto::HmacKeySchedule(
                                                nnn::util::BytesView(key)))
                 .first;
      }
      schedule_of.push_back(&it->second);
    }
    verify_results.resize(cookies.size());
    pointers.resize(n);
    for (size_t i = 0; i < n; ++i) pointers[i] = &round.packets[i];

    const uint32_t span = tracer.open("stage.round", root, Tracer::now_ns());
    timed(tracer, "runtime.steer", span, [&] {
      for (const auto& packet : round.packets) sink += rig.plane->route(packet);
      return n;
    });
    timed(tracer, "net.cookie_bytes", span, [&] {
      for (const auto& packet : round.packets) {
        if (const auto raw = packet.cookie_bytes()) sink += raw->bytes().size();
      }
      return n;
    });
    timed(tracer, "cookies.peek_id", span, [&] {
      for (const auto& raw : raws) {
        sink += nnn::cookies::peek_cookie_id(raw.bytes()).value_or(0);
      }
      return raws.size();
    });
    timed(tracer, "quic.learn", span, [&] {
      for (const auto& packet : round.packets) {
        nnn::quic::learn_steering(aliases, packet);
      }
      return n;
    });
    timed(tracer, "cookies.extract", span, [&] {
      for (const uint32_t i : carriers) {
        if (const auto extracted = nnn::cookies::extract(round.packets[i])) {
          sink += extracted->stack.size();
        }
      }
      return carriers.size();
    });
    timed(tracer, "crypto.hmac", span, [&] {
      for (size_t k = 0; k < cookies.size(); ++k) {
        sink += cookies[k].compute_tag(*schedule_of[k])[0];
      }
      return cookies.size();
    });
    timed(tracer, "state.descriptor_find", span, [&] {
      for (const Cookie& cookie : cookies) {
        sink += table != nullptr
                    ? table->find(cookie.cookie_id) != nullptr
                    : verifier.find(cookie.cookie_id) != nullptr;
      }
      return cookies.size();
    });
    timed(tracer, "cookies.verify", span, [&] {
      for (size_t b = 0; b + 1 < burst_cookies.size(); ++b) {
        const size_t first = burst_cookies[b];
        const size_t count = burst_cookies[b + 1] - first;
        if (count == 0) continue;
        clock.set(cookie_at[first]);
        verifier.verify_batch(
            std::span<const Cookie>(cookies.data() + first, count),
            std::span(verify_results.data() + first, count));
      }
      return cookies.size();
    });
    timed(tracer, "state.replay_insert", span, [&] {
      for (size_t k = 0; k < cookies.size(); ++k) {
        sink += replay.insert(cookies[k].uuid, cookie_at[k]);
      }
      return cookies.size();
    });
    timed(tracer, "dataplane.process", span, [&] {
      for (size_t i = 0; i < n; i += kBurst) {
        const size_t m = std::min(kBurst, n - i);
        clock.set(round.at_ns[i] / 1000);
        shard.process_batch(
            std::span<nnn::net::Packet* const>(pointers.data() + i, m),
            std::span(verdicts.data(), m));
      }
      return n;
    });
    tracer.close(span, Tracer::now_ns(), n);

    for (const auto& verdict : verify_results) {
      if (verdict.ok()) ++result.verify_ok;
    }
    result.verify_calls += cookies.size();
    result.packets += n;
    done += n;
    start += static_cast<int64_t>(static_cast<double>(n) * gap_ns);
  }
  tracer.close(root, Tracer::now_ns(), result.packets);
  g_sink = sink;
  return result;
}

}  // namespace nnnbench
