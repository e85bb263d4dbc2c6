#include "runner.h"

#include <algorithm>
#include <thread>

#include <sched.h>

#include "cookies/descriptor_table.h"
#include "util/hash.h"

namespace nnnbench {

namespace {

using nnn::cookies::VerifyStatus;

/// Keep one closed-loop burst span in this many (all are accounted).
constexpr uint64_t kSpanSample = 64;

uint32_t saturate(int64_t ns) {
  if (ns <= 0) return 0;
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

const char* status_name(std::optional<VerifyStatus> status) {
  if (!status) return "none";
  switch (*status) {
    case VerifyStatus::kOk: return "ok";
    case VerifyStatus::kUnknownId: return "unknown_id";
    case VerifyStatus::kBadSignature: return "bad_signature";
    case VerifyStatus::kStaleTimestamp: return "stale_timestamp";
    case VerifyStatus::kReplayed: return "replayed";
    case VerifyStatus::kDescriptorExpired: return "expired";
    case VerifyStatus::kDescriptorRevoked: return "revoked";
    case VerifyStatus::kMalformed: return "malformed";
  }
  return "?";
}

/// Pins the load for the lifetime of the guard's scope: threads spawned
/// inside it (the workers) share CPUs 2-3, and the calling thread — the
/// ingest thread — moves to CPU 1 when the guard ends, leaving CPU 0 to
/// everything else. A thread the scheduler never migrates keeps its
/// caches, and no two of the load's threads ever share a core: on the
/// reference host the capacity of campus spread 4.6% over ten pinned
/// runs and 11.2% over ten unpinned ones. Hosts with fewer than four
/// CPUs run unpinned.
class PinnedStart {
 public:
  PinnedStart() : pin_(std::thread::hardware_concurrency() >= 4) {
    if (pin_) set_affinity({2, 3});
  }
  ~PinnedStart() {
    if (pin_) set_affinity({1});
  }
  PinnedStart(const PinnedStart&) = delete;
  PinnedStart& operator=(const PinnedStart&) = delete;

 private:
  static void set_affinity(std::initializer_list<int> cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  bool pin_;
};

}  // namespace

double mean_us(const std::vector<uint32_t>& ns) {
  if (ns.empty()) return 0.0;
  double sum = 0;
  for (const uint32_t v : ns) sum += v;
  return sum / static_cast<double>(ns.size()) / 1e3;
}

double quantile_us(std::vector<uint32_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const size_t k = std::min(
      ns.size() - 1, static_cast<size_t>(q * static_cast<double>(ns.size())));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) / 1e3;
}

std::unique_ptr<Rig> build_rig(const Workload& workload, uint64_t seed,
                               const nnn::util::Clock& clock) {
  auto rig = std::make_unique<Rig>();
  rig->registry.bind("Boost", nnn::dataplane::PriorityAction{0});
  nnn::runtime::Dataplane::Config config;
  config.pool.workers = kWorkers;
  config.pool.ring_capacity = kRingCapacity;
  config.pool.batch_size = kBurst;
  config.pool.verdict_capacity = kVerdictCapacity;
  config.pool.middlebox.flow_idle_timeout = workload.flow_idle_timeout;
  config.policy = nnn::dataplane::DispatchPolicy::kDescriptorAffinity;
  if (workload.external_table) {
    auto table = std::make_unique<nnn::cookies::DescriptorTable>(
        1, external_store(workload, seed));
    rig->publisher = std::make_unique<nnn::controlplane::TablePublisher>();
    rig->plane = std::make_unique<nnn::runtime::Dataplane>(
        clock, rig->registry, config);
    rig->plane->bind_table_publisher(*rig->publisher);
    rig->publisher->publish(std::move(table));
  } else {
    const auto descriptors = local_descriptors(workload, seed);
    rig->plane = std::make_unique<nnn::runtime::Dataplane>(
        clock, rig->registry, config);
    for (const auto& descriptor : descriptors) {
      rig->plane->add_descriptor(descriptor);
    }
  }
  {
    const PinnedStart pin;
    rig->plane->start();
  }
  return rig;
}

std::vector<nnn::cookies::CookieDescriptor> generate_round(
    Traffic& traffic, Round& round, size_t n, int64_t start_ns, double pps,
    nnn::util::Rng* poisson) {
  const double gap_ns = 1e9 / pps;
  // Resizing keeps the packets' payload capacity across rounds.
  round.packets.resize(n);
  round.truth.resize(n);
  round.at_ns.resize(n);
  traffic.begin_round(start_ns / 1000,
                      static_cast<nnn::util::Timestamp>(
                          static_cast<double>(n) * gap_ns / 1000),
                      n);
  double offset = 0;
  for (size_t i = 0; i < n; ++i) {
    if (poisson == nullptr) {
      offset += i == 0 ? 0.0 : gap_ns;
    } else if (i % kArrivalBurst == 0) {
      offset += poisson->exponential(pps / kArrivalBurst) * 1e9;
    }
    round.at_ns[i] = start_ns + static_cast<int64_t>(offset);
    nnn::net::Packet& packet = round.packets[i];
    nnn::runtime::reset_for_reuse(packet);
    traffic.fill(packet, round.truth[i], round.at_ns[i] / 1000);
  }
  return traffic.renewed();
}

void Oracle::check(const Truth& truth,
                   const nnn::runtime::VerdictRecord& verdict) {
  ++checked_;
  std::optional<VerifyStatus> expected;
  switch (truth.expect) {
    case Expect::kNone:
      break;
    case Expect::kFresh:
      expected = VerifyStatus::kOk;
      break;
    case Expect::kReplay:
      // Same descriptor, same worker, FIFO: the first presentation was
      // verified before this one unless it was shed at ingest.
      expected = truth.cookie < accepted_.size() && accepted_[truth.cookie]
                     ? VerifyStatus::kReplayed
                     : VerifyStatus::kOk;
      break;
    case Expect::kForged:
      expected = VerifyStatus::kBadSignature;
      break;
  }
  if (verdict.verify_status != expected) {
    fail("seq " + std::to_string(verdict.seq) + ": verify status " +
         status_name(verdict.verify_status) + ", expected " +
         status_name(expected));
    return;
  }
  if (verdict.verify_status == VerifyStatus::kOk) {
    if (truth.cookie >= accepted_.size()) accepted_.resize(truth.cookie + 1);
    if (accepted_[truth.cookie]) {
      fail("cookie " + std::to_string(truth.cookie) + " accepted twice");
    }
    accepted_[truth.cookie] = true;
  }
}

void Oracle::fail(const std::string& what) {
  if (failures_++ == 0) first_failure_ = what;
}

Runner::Runner(uint64_t seed, PausableClock& clock, Rig& rig,
               Traffic& traffic, Tracer* tracer)
    : clock_(clock),
      plane_(*rig.plane),
      traffic_(traffic),
      tracer_(tracer),
      arrivals_(nnn::util::mix64(seed ^ 0xa771a15ull)),
      handles_(kBurst) {
  // The verdict buffer's size is part of the memory reading; reserve
  // the most one drain can return instead of letting timing decide.
  verdicts_.reserve(kVerdictCapacity);
}

void Runner::next_round(size_t n, double pps, nnn::util::Rng* poisson,
                        Tracer* tracer, uint32_t phase_span) {
  const int64_t t0 = Tracer::now_ns();
  round_.base = next_seq_;
  next_seq_ += static_cast<uint32_t>(n);
  // The clock is frozen here and the pool drained: renewals install on
  // a quiescent dataplane, as the control-plane contract requires.
  for (const auto& descriptor :
       generate_round(traffic_, round_, n, clock_.now_ns(), pps, poisson)) {
    plane_.add_descriptor(descriptor);
  }
  if (tracer != nullptr) {
    tracer->add("bench.generate", phase_span, t0, Tracer::now_ns(), n);
  }
}

size_t Runner::emit(std::vector<uint32_t>* latency_ns) {
  verdicts_.clear();
  const size_t n = plane_.drain_verdicts(verdicts_);
  if (n == 0) return 0;
  const int64_t popped_at = latency_ns != nullptr ? clock_.now_ns() : 0;
  for (const auto& verdict : verdicts_) {
    const size_t index = verdict.seq - round_.base;
    if (index >= round_.size()) {
      oracle_.fail("verdict for seq " + std::to_string(verdict.seq) +
                   " outside the current round");
      continue;
    }
    oracle_.check(round_.truth[index], verdict);
    if (latency_ns != nullptr) {
      latency_ns->push_back(saturate(popped_at - round_.at_ns[index]));
    }
  }
  popped_ += n;
  return n;
}

void Runner::closed_burst(size_t first, size_t m, Tracer* tracer,
                          uint32_t round_span) {
  const bool traced = tracer != nullptr;
  const bool keep = traced && bursts_++ % kSpanSample == 0;
  const int64_t t1 = traced ? Tracer::now_ns() : 0;
  for (size_t k = 0; k < m; ++k) {
    handles_[k] = plane_.make_packet();
    // The arena holds every ring's worth of slots and more, so it runs
    // dry only for an instant; yield if it ever does.
    while (!handles_[k]) {
      std::this_thread::yield();
      handles_[k] = plane_.make_packet();
    }
  }
  const int64_t t2 = traced ? Tracer::now_ns() : 0;
  for (size_t k = 0; k < m; ++k) {
    *handles_[k] = round_.packets[first + k];
    handles_[k]->seq = round_.base + static_cast<uint32_t>(first + k);
  }
  const int64_t t3 = traced ? Tracer::now_ns() : 0;
  for (size_t k = 0; k < m; ++k) {
    plane_.ingest_blocking(std::move(handles_[k]));
  }
  attempts_ += m;
  const int64_t t4 = traced ? Tracer::now_ns() : 0;
  const size_t popped = emit(nullptr);
  if (!traced) return;
  const int64_t t5 = Tracer::now_ns();
  const uint32_t burst = keep ? tracer->open("e2e.burst", round_span, t1) : 0;
  tracer->add("runtime.make_packet", burst, t1, t2, m, keep);
  tracer->add("bench.build", burst, t2, t3, m, keep);
  tracer->add("runtime.ingest", burst, t3, t4, m, keep);
  tracer->add("bench.emit", burst, t4, t5, popped, keep);
  if (keep) {
    tracer->close(burst, t5, m);
  } else {
    tracer->add("e2e.burst", 0, t1, t5, m, false);
  }
}

PhaseResult Runner::capacity(const PhasePlan& plan) {
  PhaseResult result;
  const int64_t v0 = clock_.now_ns();
  const uint64_t attempts0 = attempts_;
  const uint64_t popped0 = popped_;
  // Spans cover the measured rounds only; warm-up is not the system's
  // steady state.
  Tracer* tracer = nullptr;
  uint32_t phase = 0;
  nnn::runtime::RuntimeSnapshot before;
  const size_t n = plan.round_packets;
  while (result.round_mpps.size() < plan.rounds) {
    const bool measured = clock_.now_ns() - v0 >= plan.warmup_ns;
    if (measured && result.round_mpps.empty()) {
      before = plane_.snapshot();
      if (tracer_ != nullptr) {
        tracer = tracer_;
        phase = tracer->open("e2e.capacity", 0, Tracer::now_ns());
      }
    }
    const int64_t start = clock_.now_ns();
    capacity_starts_.push_back(start);
    next_round(n, plan.pps, nullptr, tracer, phase);
    clock_.resume();
    const uint32_t round =
        tracer != nullptr ? tracer->open("e2e.round", phase, Tracer::now_ns())
                          : 0;
    for (size_t i = 0; i < n; i += kBurst) {
      closed_burst(i, std::min(kBurst, n - i), tracer, round);
    }
    // Completion is inside the measurement: capacity means packets
    // verified and emitted, not packets parked in a ring.
    const int64_t d0 = tracer != nullptr ? Tracer::now_ns() : 0;
    plane_.drain();
    emit(nullptr);
    clock_.pause();
    if (tracer != nullptr) {
      const int64_t end = Tracer::now_ns();
      tracer->add("runtime.drain", round, d0, end, 1);
      tracer->close(round, end, n);
    }
    if (!measured) {
      ++result.warmup_rounds;
      continue;
    }
    const int64_t round_ns = clock_.now_ns() - start;
    result.round_mpps.push_back(static_cast<double>(n) * 1e3 /
                                static_cast<double>(round_ns));
    result.measured_packets += n;
    result.measured_ns += round_ns;
  }
  result.offered = attempts_ - attempts0;
  result.verdicts = popped_ - popped0;
  const nnn::runtime::RuntimeSnapshot after = plane_.snapshot();
  for (size_t w = 0; w < after.workers.size(); ++w) {
    const uint64_t packets =
        after.workers[w].packets - before.workers[w].packets;
    result.workers.busy_micros +=
        after.workers[w].busy_micros - before.workers[w].busy_micros;
    result.workers.batches +=
        after.workers[w].batches - before.workers[w].batches;
    result.workers.packets += packets;
    result.workers.busiest_packets =
        std::max(result.workers.busiest_packets, packets);
  }
  if (tracer != nullptr) {
    tracer->close(phase, Tracer::now_ns(), result.measured_packets);
  }
  return result;
}

PhaseResult Runner::latency(const PhasePlan& plan) {
  PhaseResult result;
  const size_t n = plan.round_packets;
  result.latency_ns.reserve(plan.rounds * n);
  result.lateness_ns.reserve(plan.rounds * n);
  std::vector<uint32_t> round_latency;
  round_latency.reserve(n);
  const int64_t v0 = clock_.now_ns();
  const uint64_t attempts0 = attempts_;
  const uint64_t popped0 = popped_;
  while (result.round_p50_us.size() < plan.rounds) {
    const bool measured = clock_.now_ns() - v0 >= plan.warmup_ns;
    const int64_t start = clock_.now_ns();
    next_round(n, plan.pps, &arrivals_, nullptr, 0);
    // The round's schedule starts at the frozen instant; resuming
    // continues from exactly there.
    clock_.resume();
    round_latency.clear();
    for (size_t i = 0; i < n;) {
      const int64_t now = clock_.now_ns();
      for (size_t m = 0; i < n && m < kBurst && round_.at_ns[i] <= now;
           ++i, ++m) {
        nnn::runtime::PacketHandle handle = plane_.make_packet();
        if (handle) {
          *handle = round_.packets[i];
          handle->seq = round_.base + static_cast<uint32_t>(i);
        }
        if (measured) {
          result.lateness_ns.push_back(saturate(now - round_.at_ns[i]));
        }
        ++attempts_;
        // Open loop: an empty handle or a full ring is a counted shed.
        if (!plane_.ingest(std::move(handle))) ++result.shed;
      }
      emit(&round_latency);
    }
    plane_.drain();
    emit(&round_latency);
    clock_.pause();
    if (!measured) {
      ++result.warmup_rounds;
      continue;
    }
    result.measured_packets += n;
    result.measured_ns += clock_.now_ns() - start;
    result.latency_ns.insert(result.latency_ns.end(), round_latency.begin(),
                             round_latency.end());
    result.round_p50_us.push_back(quantile_us(round_latency, 0.50));
    result.round_p99_us.push_back(quantile_us(round_latency, 0.99));
    result.round_mean_us.push_back(mean_us(round_latency));
  }
  result.offered = attempts_ - attempts0;
  result.verdicts = popped_ - popped0;
  return result;
}

void Runner::release_buffers() { round_ = Round{}; }

void Runner::finish() {
  plane_.stop();
  const nnn::runtime::WorkerSnapshot totals = plane_.snapshot().totals();
  verdicts_dropped_ = totals.verdicts_dropped;
  if (totals.processed + totals.shed != attempts_) {
    oracle_.fail("ledger: attempts " + std::to_string(attempts_) +
                 " != processed " + std::to_string(totals.processed) +
                 " + shed " + std::to_string(totals.shed));
  }
  if (popped_ + totals.verdicts_dropped != totals.processed) {
    oracle_.fail("verdicts: popped " + std::to_string(popped_) +
                 " + dropped " + std::to_string(totals.verdicts_dropped) +
                 " != processed " + std::to_string(totals.processed));
  }
  const uint64_t outstanding = plane_.arena().outstanding();
  if (outstanding != 0) {
    oracle_.fail("arena: " + std::to_string(outstanding) +
                 " slots outstanding after stop()");
  }
}

}  // namespace nnnbench
