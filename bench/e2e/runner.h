// nnnbench runner: set-up, the two measured phases, and the oracle.
//
// Load shape (every workload): one process, the ingest thread plus two
// workers under descriptor affinity — three threads on the four-core
// reference host. The ingest thread is the producer AND the emit stage:
// it drains the verdict ring every burst.
//
// Capacity phase (closed loop): ingest_blocking(), one producer,
// loss-free: a full ring holds the producer back until its worker makes
// room. A round ends after drain(), with every verdict popped.
//
// Latency phase (open loop): Poisson arrivals of 32-packet bursts at the
// workload's rate, non-blocking ingest() (a full ring sheds, fail-open).
// A packet's latency runs from its due time to the moment the ingest
// thread pops its VerdictRecord, so time the ingest thread runs late is
// charged.
//
// Traffic is generated in rounds while the PausableClock is frozen;
// rates and latencies are measured in that clock's virtual time. Each
// phase runs on a fresh rig and warms up (Workload::warmup) before its
// measured rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clock.h"
#include "controlplane/epoch.h"
#include "dataplane/service_registry.h"
#include "runtime/dataplane.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace nnnbench {

inline constexpr size_t kWorkers = 2;
inline constexpr size_t kRingCapacity = 16384;
inline constexpr size_t kVerdictCapacity = 65536;
/// Rounds hold about kRoundSeconds of traffic at the phase's rate,
/// within these bounds (memory on one side, per-round statistics on the
/// other).
inline constexpr double kRoundSeconds = 0.05;
inline constexpr size_t kMinRoundPackets = size_t{1} << 14;
inline constexpr size_t kMaxRoundPackets = size_t{1} << 18;
inline constexpr size_t kBurst = 32;
/// Open-loop arrivals come as Poisson bursts of this many packets, the
/// RX burst a NIC hands a polling receive loop.
inline constexpr size_t kArrivalBurst = 32;
/// Virtual time at which every run starts (cookie timestamps stay
/// positive and well away from zero).
inline constexpr nnn::util::Timestamp kClockOrigin =
    1000 * nnn::util::kSecond;

/// The system under test as one workload sets it up. Members are
/// declared so the dataplane is destroyed before the publisher it
/// reads.
struct Rig {
  nnn::dataplane::ServiceRegistry registry;
  std::unique_ptr<nnn::controlplane::TablePublisher> publisher;
  std::unique_ptr<nnn::runtime::Dataplane> plane;
};

/// Mint the workload's descriptors, install them locally or publish
/// them, construct the Dataplane and start it: what setup_s times.
std::unique_ptr<Rig> build_rig(const Workload& workload, uint64_t seed,
                               const nnn::util::Clock& clock);

/// One pre-generated round of traffic.
struct Round {
  std::vector<nnn::net::Packet> packets;
  std::vector<Truth> truth;
  /// Scheduled send time per packet, virtual ns: the due time in the
  /// latency phase, a nominal pace in the capacity phase.
  std::vector<int64_t> at_ns;
  /// Packet::seq of packets[0]; seq - base indexes the round.
  uint32_t base = 0;

  size_t size() const { return packets.size(); }
};

/// Generate `n` packets starting at virtual `start_ns`, paced at `pps`
/// (exponential gaps when `poisson` is given). Returns the descriptors
/// the traffic renewed for this round.
std::vector<nnn::cookies::CookieDescriptor> generate_round(
    Traffic& traffic, Round& round, size_t n, int64_t start_ns, double pps,
    nnn::util::Rng* poisson);

/// Holds every verdict against the generator's ground truth.
class Oracle {
 public:
  void check(const Truth& truth, const nnn::runtime::VerdictRecord& verdict);
  void fail(const std::string& what);

  bool ok() const { return failures_ == 0; }
  uint64_t checked() const { return checked_; }
  uint64_t failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::vector<bool> accepted_;  // by cookie serial
  uint64_t checked_ = 0;
  uint64_t failures_ = 0;
  std::string first_failure_;
};

/// Nearest-rank quantile `q` of `ns`, in microseconds (reorders `ns`).
double quantile_us(std::vector<uint32_t>& ns, double q);
double mean_us(const std::vector<uint32_t>& ns);

/// How one phase runs: rounds of `round_packets` at `pps`, first for
/// `warmup_ns` of virtual time unmeasured, then `rounds` measured ones.
struct PhasePlan {
  double pps = 0;
  size_t round_packets = 0;
  int64_t warmup_ns = 0;
  size_t rounds = 0;
};

struct PhaseResult {
  uint64_t offered = 0;   // ingest attempts, warm-up included
  uint64_t shed = 0;      // ingest() refusals (latency phase)
  uint64_t verdicts = 0;  // verdicts popped
  size_t warmup_rounds = 0;
  uint64_t measured_packets = 0;
  int64_t measured_ns = 0;  // virtual time of the measured rounds
  /// Per measured round: capacity-phase rate; latency-phase p50, p99
  /// and mean. The end-to-end metrics are medians over rounds, so a
  /// round disturbed by something outside the benchmark cannot move
  /// them.
  std::vector<double> round_mpps;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  std::vector<double> round_mean_us;
  /// Latency phase, all measured rounds: due -> verdict popped, and
  /// due -> ingested (the generator's lateness).
  std::vector<uint32_t> latency_ns;
  std::vector<uint32_t> lateness_ns;
  /// Capacity phase: worker counters over the measured rounds.
  struct {
    uint64_t busy_micros = 0;
    uint64_t batches = 0;
    uint64_t packets = 0;
    uint64_t busiest_packets = 0;  // the most any one worker processed
  } workers;

  double mpps() const {
    return measured_ns <= 0 ? 0.0
                            : static_cast<double>(measured_packets) * 1e3 /
                                  static_cast<double>(measured_ns);
  }
};

class Runner {
 public:
  /// `tracer` (may be null) receives producer-side spans around bursts
  /// of real calls in the capacity phase. `seed` draws the arrivals.
  Runner(uint64_t seed, PausableClock& clock, Rig& rig, Traffic& traffic,
         Tracer* tracer);

  PhaseResult capacity(const PhasePlan& plan);
  PhaseResult latency(const PhasePlan& plan);

  /// Free the round buffers (before the memory reading).
  void release_buffers();
  /// Stop the dataplane and check the books: attempts == processed +
  /// shed, every processed packet's verdict seen or counted dropped,
  /// arena().outstanding() == 0.
  void finish();

  const Oracle& oracle() const { return oracle_; }
  uint64_t attempts() const { return attempts_; }
  uint64_t verdicts_dropped() const { return verdicts_dropped_; }
  /// Virtual start time of each capacity round, warm-up included (the
  /// stage replay regenerates the same packets).
  const std::vector<int64_t>& capacity_round_starts() const {
    return capacity_starts_;
  }

 private:
  void next_round(size_t n, double pps, nnn::util::Rng* poisson,
                  Tracer* tracer, uint32_t phase_span);
  void closed_burst(size_t first, size_t m, Tracer* tracer,
                    uint32_t round_span);
  /// Pop and check every waiting verdict; with `latency_ns`, record each
  /// packet's latency at the pop. Returns the verdicts popped.
  size_t emit(std::vector<uint32_t>* latency_ns);

  PausableClock& clock_;
  nnn::runtime::Dataplane& plane_;
  Traffic& traffic_;
  Tracer* tracer_;
  nnn::util::Rng arrivals_;
  Round round_;
  Oracle oracle_;
  std::vector<nnn::runtime::VerdictRecord> verdicts_;
  std::vector<nnn::runtime::PacketHandle> handles_;
  std::vector<int64_t> capacity_starts_;
  uint32_t next_seq_ = 0;
  uint64_t attempts_ = 0;
  uint64_t popped_ = 0;
  uint64_t bursts_ = 0;
  uint64_t verdicts_dropped_ = 0;
};

}  // namespace nnnbench
