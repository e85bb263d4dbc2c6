#include "workloads.h"

#include <array>
#include <cstring>

#include "cookies/cookie.h"
#include "cookies/transport.h"
#include "crypto/uuid.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "quic/workload.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/samplers.h"

namespace nnnbench {

namespace {

using nnn::util::kSecond;

// Why each mix exists is recorded in BENCHMARK.json and README.md.
constexpr std::array<Workload, 4> kWorkloads = {{
    {"campus", Mix::kCampus, 100'000, false, 512, 1 * kSecond, 2 * kSecond,
     3.8e6, 1.0e6},
    {"cookie_storm", Mix::kCookieStorm, 1'000'000, true, 64, 1 * kSecond,
     5 * kSecond, 0.62e6, 0.3e6},
    {"replay_attack", Mix::kReplayAttack, 1'000'000, true, 64, 1 * kSecond,
     5 * kSecond, 0.75e6, 0.35e6},
    {"quic_migrate", Mix::kQuicMigrate, 1024, false, 1200, 1 * kSecond,
     2 * kSecond, 2.5e6, 1.2e6},
}};

/// QUIC trace shape: the generator's default connection length and the
/// rotation cadence the workload specifies; descriptors come from the
/// workload.
constexpr uint32_t kQuicPacketsPerConnection = 120;
constexpr uint32_t kQuicRotateEvery = 24;

constexpr uint32_t kCampusFlowPackets = 50;
constexpr double kStormZipf = 1.1;
constexpr uint64_t kPopularitySeed = 0x5eed;
/// replay_attack replays one of the last kRecent fresh cookies; at the
/// mix's rates that window is well under the 1 s the workload allows.
constexpr size_t kRecent = 1 << 16;

nnn::cookies::Cookie mint(uint64_t seed, nnn::cookies::CookieId id,
                          nnn::util::Timestamp at, nnn::util::Rng& rng) {
  nnn::cookies::Cookie cookie;
  cookie.cookie_id = id;
  cookie.uuid = nnn::crypto::Uuid::generate(rng);
  cookie.timestamp = nnn::cookies::to_cookie_time(at);
  cookie.signature =
      cookie.compute_tag(nnn::util::BytesView(descriptor_key(seed, id)));
  return cookie;
}

/// Distinct UDP five-tuples: flow n sources from 10.x.y.z (low 24 bits
/// of n) and port 1024 + (n >> 24), towards a seed-drawn server.
class TupleSource {
 public:
  nnn::net::FiveTuple next(nnn::util::Rng& rng) {
    const uint64_t n = next_++;
    nnn::net::FiveTuple tuple;
    tuple.src_ip = nnn::net::IpAddress::v4(
        0x0a000000u | static_cast<uint32_t>(n & 0xffffff));
    tuple.src_port = static_cast<uint16_t>(1024 + (n >> 24));
    tuple.dst_ip = nnn::net::IpAddress::v4(
        151, 101, static_cast<uint8_t>(rng.next_u64()),
        static_cast<uint8_t>(rng.next_u64()));
    tuple.dst_port = 443;
    tuple.proto = nnn::net::L4Proto::kUdp;
    return tuple;
  }

 private:
  uint64_t next_ = 0;
};

/// Back-to-back 50-packet flows; the first packet of each carries one
/// fresh cookie (UDP shim) from a uniformly drawn descriptor — the
/// MoonGen shape of the paper's Fig. 4.
class CampusTraffic final : public Traffic {
 public:
  CampusTraffic(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed), rng_(nnn::util::mix64(seed)) {}

  void fill(nnn::net::Packet& out, Truth& truth,
            nnn::util::Timestamp at) override {
    if (pos_ == 0) tuple_ = tuples_.next(rng_);
    out.tuple = tuple_;
    truth = Truth{};
    if (pos_ == 0) {
      const auto id = static_cast<nnn::cookies::CookieId>(
          1 + rng_.next_u64(workload_.descriptors));
      nnn::cookies::attach(out, mint(seed_, id, at, rng_),
                           nnn::cookies::Transport::kUdpHeader);
      truth = Truth{Expect::kFresh, minted_++};
    }
    // attach() sizes the packet from its payload; the experiment's
    // modeled size wins.
    out.wire_size = workload_.packet_bytes;
    if (++pos_ == kCampusFlowPackets) pos_ = 0;
  }

 private:
  const Workload& workload_;
  uint64_t seed_;
  nnn::util::Rng rng_;
  TupleSource tuples_;
  nnn::net::FiveTuple tuple_{};
  uint32_t pos_ = 0;
};

/// One-packet flows, each with a cookie for a Zipf-popular descriptor.
/// With `attack`, half the cookies are fresh, a quarter replay a recent
/// fresh cookie on a new tuple, and a quarter carry a forged tag.
class StormTraffic final : public Traffic {
 public:
  StormTraffic(const Workload& workload, uint64_t seed, bool attack)
      : workload_(workload),
        seed_(seed),
        attack_(attack),
        rng_(nnn::util::mix64(seed)),
        popularity_(make_popularity(workload)),
        recent_(attack ? kRecent : 0) {}

  void fill(nnn::net::Packet& out, Truth& truth,
            nnn::util::Timestamp at) override {
    out.tuple = tuples_.next(rng_);
    const double u = attack_ ? rng_.next_double() : 0.0;
    if (u < 0.75 && u >= 0.5 && recent_count_ > 0) {
      const Sent& sent = pick_recent(at);
      nnn::cookies::attach(out, sent.cookie,
                           nnn::cookies::Transport::kUdpHeader);
      truth = Truth{Expect::kReplay, sent.serial};
    } else if (u >= 0.75) {
      nnn::cookies::Cookie forged = mint(seed_, draw_id(), at, rng_);
      forged.signature[0] ^= 0x01;
      nnn::cookies::attach(out, forged, nnn::cookies::Transport::kUdpHeader);
      truth = Truth{Expect::kForged, 0};
    } else {
      const nnn::cookies::Cookie cookie = mint(seed_, draw_id(), at, rng_);
      nnn::cookies::attach(out, cookie, nnn::cookies::Transport::kUdpHeader);
      truth = Truth{Expect::kFresh, minted_};
      if (attack_) remember(Sent{cookie, minted_, at});
      ++minted_;
    }
    out.wire_size = workload_.packet_bytes;
  }

 private:
  struct Sent {
    nnn::cookies::Cookie cookie;
    uint32_t serial = 0;
    nnn::util::Timestamp at = 0;
  };

  /// The popularity ranking belongs to the workload, not to the seed:
  /// under descriptor affinity the hottest ids decide how evenly the
  /// workers are loaded, and a per-seed ranking would make that balance
  /// (and so capacity) a property of the seed.
  static nnn::workload::ZipfAccess make_popularity(const Workload& workload) {
    nnn::util::Rng shuffle(kPopularitySeed);
    return nnn::workload::ZipfAccess(workload.descriptors, kStormZipf,
                                     shuffle);
  }

  nnn::cookies::CookieId draw_id() {
    return static_cast<nnn::cookies::CookieId>(popularity_.next(rng_) + 1);
  }

  void remember(const Sent& sent) {
    recent_[recent_head_] = sent;
    recent_head_ = (recent_head_ + 1) % recent_.size();
    if (recent_count_ < recent_.size()) ++recent_count_;
  }

  /// A fresh cookie sent at most 1 s before `at` (the newest one if the
  /// uniform draw lands on anything older).
  const Sent& pick_recent(nnn::util::Timestamp at) {
    const size_t back = 1 + rng_.next_u64(recent_count_);
    const size_t n = recent_.size();
    const Sent& sent = recent_[(recent_head_ + n - back) % n];
    if (at - sent.at <= kSecond) return sent;
    return recent_[(recent_head_ + n - 1) % n];
  }

  const Workload& workload_;
  uint64_t seed_;
  bool attack_;
  nnn::util::Rng rng_;
  nnn::workload::ZipfAccess popularity_;
  TupleSource tuples_;
  std::vector<Sent> recent_;
  size_t recent_head_ = 0;
  size_t recent_count_ = 0;
};

uint64_t quic_round_seed(uint64_t seed, uint64_t round) {
  return nnn::util::mix64(seed ^ nnn::util::mix64(round + 1));
}

nnn::quic::QuicTraceGenerator::Config quic_config(const Workload& workload,
                                                  size_t packets) {
  nnn::quic::QuicTraceGenerator::Config config;
  config.connections =
      (packets + kQuicPacketsPerConnection - 1) / kQuicPacketsPerConnection;
  config.packets_per_connection = kQuicPacketsPerConnection;
  config.rotate_every = kQuicRotateEvery;
  config.descriptors = workload.descriptors;
  config.wire_size = workload.packet_bytes;
  // Short-header payloads are opaque to the middlebox; 16 materialized
  // bytes (of the modeled wire size) keep generation cheap.
  config.payload_bytes = 16;
  return config;
}

/// Four NAT-rebind windows across the round, each an eighth of it long
/// at magnitude 0.5: a connection spanning the round rebinds about
/// twice, at the round's pace whatever the phase's rate.
nnn::fault::FaultPlan rebind_plan(nnn::util::Timestamp start,
                                  nnn::util::Timestamp span) {
  nnn::fault::FaultPlan plan;
  const nnn::util::Timestamp window =
      std::max<nnn::util::Timestamp>(1, span / 8);
  for (int k = 0; k < 4; ++k) {
    plan.add({nnn::fault::FaultKind::kNatRebind,
              start + span * (2 * k + 1) / 8, window, 0.5});
  }
  return plan;
}

/// The encrypted trace. QuicTraceGenerator opens all its connections at
/// once, so one generator for a whole run would put every handshake in
/// its first round. Each round is instead one complete trace from a
/// generator seeded by (seed, round): handshakes, rotations and
/// rebinds recur every round. A fresh generator mints fresh keys for
/// the same descriptor ids; the runner installs them between rounds, a
/// descriptor renewal (§4.1) on a quiescent dataplane.
class QuicTraffic final : public Traffic {
 public:
  QuicTraffic(const Workload& workload, uint64_t seed)
      : workload_(workload), seed_(seed) {}

  void begin_round(nnn::util::Timestamp start, nnn::util::Timestamp span,
                   size_t packets) override {
    const uint64_t round_seed = quic_round_seed(seed_, round_);
    clock_.set(start);
    generator_ = std::make_unique<nnn::quic::QuicTraceGenerator>(
        quic_config(workload_, packets), clock_, nullptr, round_seed);
    injector_.arm(rebind_plan(start, span), round_seed);
    generator_->set_fault_injector(&injector_);
    renewed_.clear();
    if (round_ > 0) renewed_ = generator_->descriptors();
    ++round_;
  }

  std::vector<nnn::cookies::CookieDescriptor> renewed() override {
    return std::move(renewed_);
  }

  void fill(nnn::net::Packet& out, Truth& truth,
            nnn::util::Timestamp at) override {
    clock_.set(at);
    const uint32_t conn = generator_->fill_next(out);
    truth = Truth{};
    if (out.quic->long_header && generator_->connection(conn).has_cookie) {
      truth = Truth{Expect::kFresh, minted_++};
    }
  }

 private:
  const Workload& workload_;
  uint64_t seed_;
  uint64_t round_ = 0;
  nnn::util::ManualClock clock_;
  nnn::fault::Injector injector_;
  /// Declared after clock_ and injector_, which it references.
  std::unique_ptr<nnn::quic::QuicTraceGenerator> generator_;
  std::vector<nnn::cookies::CookieDescriptor> renewed_;
};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

nnn::util::Bytes descriptor_key(uint64_t seed, nnn::cookies::CookieId id) {
  nnn::util::Bytes key(32);
  uint64_t x = nnn::util::mix64(seed ^ nnn::util::mix64(id));
  for (size_t i = 0; i < key.size(); i += 8) {
    x = nnn::util::mix64(x + i + 1);
    std::memcpy(key.data() + i, &x, 8);
  }
  return key;
}

nnn::cookies::CookieDescriptor make_descriptor(uint64_t seed,
                                               nnn::cookies::CookieId id) {
  nnn::cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = id;
  descriptor.key = descriptor_key(seed, id);
  descriptor.service_data = "Boost";
  return descriptor;
}

std::vector<nnn::cookies::CookieDescriptor> local_descriptors(
    const Workload& workload, uint64_t seed) {
  if (workload.mix == Mix::kQuicMigrate) {
    // The trace generator mints its own descriptors; round 0's are the
    // ones installed at set-up (same seed as QuicTraffic's round 0).
    nnn::util::ManualClock clock;
    return nnn::quic::QuicTraceGenerator(quic_config(workload, 0), clock,
                                         nullptr, quic_round_seed(seed, 0))
        .descriptors();
  }
  std::vector<nnn::cookies::CookieDescriptor> out;
  out.reserve(workload.descriptors);
  for (size_t id = 1; id <= workload.descriptors; ++id) {
    out.push_back(make_descriptor(seed, id));
  }
  return out;
}

nnn::cookies::DescriptorStore external_store(const Workload& workload,
                                             uint64_t seed) {
  nnn::cookies::DescriptorStore store;
  store.reserve(workload.descriptors);
  for (size_t id = 1; id <= workload.descriptors; ++id) {
    store.upsert(make_descriptor(seed, id));
  }
  return store;
}

std::unique_ptr<Traffic> Traffic::create(const Workload& workload,
                                         uint64_t seed) {
  switch (workload.mix) {
    case Mix::kCampus:
      return std::make_unique<CampusTraffic>(workload, seed);
    case Mix::kCookieStorm:
      return std::make_unique<StormTraffic>(workload, seed, false);
    case Mix::kReplayAttack:
      return std::make_unique<StormTraffic>(workload, seed, true);
    case Mix::kQuicMigrate:
      return std::make_unique<QuicTraffic>(workload, seed);
  }
  return nullptr;
}

}  // namespace nnnbench
