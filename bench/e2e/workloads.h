// nnnbench workloads: the four traffic mixes and the traffic sources
// that generate them.
//
// A workload fixes everything a run depends on except the seed —
// descriptor count and mode, packet size, flow shape, the closed-loop
// packet budget and the open-loop rate — so two commits measured with
// the same benchmark code do identical work. The seed only changes the
// generated inputs (keys, tuples, cookie ids, uuids, arrival times).
//
// Every generated packet comes with its ground truth (Truth): which
// VerifyStatus the dataplane must report for it. The runner's oracle
// holds every verdict against it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cookies/descriptor.h"
#include "cookies/descriptor_store.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnnbench {

enum class Mix : uint8_t { kCampus, kCookieStorm, kReplayAttack, kQuicMigrate };

struct Workload {
  std::string_view name;
  Mix mix;
  size_t descriptors;
  /// Descriptors published through controlplane::TablePublisher (ISP
  /// scale) instead of installed into every worker (local mode).
  bool external_table;
  uint32_t packet_bytes;  // modeled on-wire size
  nnn::util::Timestamp flow_idle_timeout;
  /// Unmeasured virtual time at the start of each phase: long enough
  /// for the state the mix builds to stop growing — twice the flow idle
  /// timeout for flow state, one NCT when every packet adds a uuid to
  /// the replay cache.
  nnn::util::Timestamp warmup;
  /// Reference closed-loop rate, about what the reference host
  /// sustains: it sizes the capacity phase's rounds and measured packet
  /// count, and paces the cookie timestamps it mints.
  double capacity_pps;
  /// Open-loop arrival rate of the latency phase.
  double offered_pps;
};

std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

/// What the dataplane must say about a packet.
enum class Expect : uint8_t {
  kNone,    // no cookie: no verify status at all
  kFresh,   // a never-seen valid cookie: kOk
  kReplay,  // a cookie already presented: kReplayed (kOk if the first
            // presentation was shed and never verified)
  kForged,  // known id, wrong tag: kBadSignature
};

struct Truth {
  Expect expect = Expect::kNone;
  /// Serial of the cookie this packet carries (fresh or replayed), for
  /// the accept-at-most-once check.
  uint32_t cookie = 0;
};

/// Descriptor `id` of a workload: a 32-byte key derived from (seed, id),
/// so traffic sources re-derive keys instead of holding a million.
nnn::cookies::CookieDescriptor make_descriptor(uint64_t seed,
                                               nnn::cookies::CookieId id);
nnn::util::Bytes descriptor_key(uint64_t seed, nnn::cookies::CookieId id);

/// The descriptors a local-mode workload installs before round 0.
std::vector<nnn::cookies::CookieDescriptor> local_descriptors(
    const Workload& workload, uint64_t seed);
/// The compact table an external-table workload publishes.
nnn::cookies::DescriptorStore external_store(const Workload& workload,
                                             uint64_t seed);

class Traffic {
 public:
  static std::unique_ptr<Traffic> create(const Workload& workload,
                                         uint64_t seed);
  virtual ~Traffic() = default;

  /// Open the next round: `packets` packets scheduled over
  /// [start, start + span) (virtual microseconds).
  virtual void begin_round(nnn::util::Timestamp start,
                           nnn::util::Timestamp span, size_t packets) {
    (void)start;
    (void)span;
    (void)packets;
  }

  /// Descriptors (re)issued for the round just opened, which the
  /// dataplane must install before ingesting it. Empty unless the mix
  /// renews its descriptors per round.
  virtual std::vector<nnn::cookies::CookieDescriptor> renewed() {
    return {};
  }

  /// Build the next packet, as sent at `at`, into a reset packet.
  virtual void fill(nnn::net::Packet& out, Truth& truth,
                    nnn::util::Timestamp at) = 0;

  /// Fresh cookies minted so far (serials are 0 .. minted-1).
  uint32_t minted() const { return minted_; }

 protected:
  uint32_t minted_ = 0;
};

}  // namespace nnnbench
