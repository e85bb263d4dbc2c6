#include "runtime/dataplane.h"

#include <array>
#include <cassert>
#include <chrono>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "fault/injector.h"
#include "util/logging.h"

namespace nnn::runtime {

namespace {

/// One wait step for a thread polling for work or for quiescence: spin
/// briefly (another burst usually lands within a few hundred cycles at
/// line rate), then yield, which matters when workers outnumber cores.
void spin_then_yield(unsigned& rounds) {
  if (rounds < 64) {
    ++rounds;
  } else {
    std::this_thread::yield();
  }
}

/// How long an idle worker polls its empty ring before it parks on its
/// doorbell. Open-loop bursts arrive as a Poisson process, so an idle
/// gap is exponential with mean burst / rate: ~100 us for 32-packet
/// bursts at 0.3 Mpps. A 1 ms budget outlasts all but ~1e-4 of such
/// gaps, so a loaded worker almost never pays a futex wake, and it caps
/// what an idle period costs in polling at 1 ms of CPU. Wall time on
/// steady_clock, never the plane's Clock: a paused or manual clock
/// would never run the budget out.
constexpr std::chrono::milliseconds kIdlePollBudget{1};

Dataplane::Config normalize(Dataplane::Config config) {
  Dataplane::PoolConfig& pool = config.pool;
  if (pool.workers == 0) pool.workers = 1;
  if (pool.batch_size == 0) pool.batch_size = 1;
  if (pool.arena_slots == 0) {
    // The most slots the producer can be kept from at once. Per
    // worker: a full ring and the burst it popped (an emitted slot is
    // in its return ring, which the producer refills from). The
    // producer adds its alloc stash and a burst of handles it holds
    // before ingesting them. Exhaustion under this sizing means the
    // producer is outrunning the rings anyway, and shedding is the
    // right answer.
    pool.arena_slots =
        pool.workers *
            (ring_capacity_for(pool.ring_capacity) + pool.batch_size) +
        PacketArena::kChunk + pool.batch_size;
  }
  return config;
}

}  // namespace

/// One shard: verifier + middlebox owned exclusively by one thread,
/// plus the SPSC ring feeding it. Declaration order matters — the
/// verifier must outlive the middlebox.
struct Dataplane::Worker {
  cookies::CookieVerifier verifier;
  dataplane::Middlebox middlebox;
  /// Arena slot indices; the packets themselves never move.
  SpscRing<uint32_t> ring;
  /// Emitted slots on their way home: this worker pushes each slot as
  /// it emits the packet, and the producer refills its stash from
  /// here. Sized to the whole arena, so a push never fails. Slots in
  /// it still count as allocated; stop() returns them to the freelist.
  SpscRing<uint32_t> returns;
  WorkerCounters counters;
  /// Epoch reader into the plane's current publisher. Used only by
  /// this worker's thread.
  controlplane::TablePublisher::Reader table_reader;
  /// Ring bursts are timed 1-in-32. Even a full 32-packet burst is
  /// only ~3 us of work, so the ~86 ns timer pair would cost ~3%
  /// unsampled — over the 2% telemetry budget on its own.
  telemetry::SampleStride burst_sample{32};
  /// Incremented by the producer *before* the push so a quiescence
  /// check can never observe a pushed-but-uncounted packet.
  alignas(kCacheLineSize) std::atomic<uint64_t> submitted{0};
  /// 1 while the worker is parked, or about to park; whoever wakes it
  /// sets it back to 0. On the `submitted` line: the producer already
  /// writes that line per packet, and the worker writes it only when it
  /// parks or wakes.
  std::atomic<uint32_t> doorbell{0};
  std::thread thread;
  /// Deregisters before `counters` is destroyed (declared after it).
  telemetry::Registration registration;

  Worker(const util::Clock& clock, dataplane::ServiceRegistry& registry,
         PacketArena& arena, const PoolConfig& config)
      : verifier(clock),
        middlebox(clock, verifier, registry, config.middlebox),
        ring(config.ring_capacity),
        returns(arena.capacity()) {}

  /// Block until ingest() or stop() rings the doorbell. Returns false
  /// without blocking when a packet or a stop is already on its way.
  ///
  /// No lost wake-up: the store of 1 and the two loads after it are
  /// seq_cst, like the producer's submitted.fetch_add and its doorbell
  /// load after the push (try_enqueue), so all four sit in one total
  /// order. If the producer's doorbell load comes first, its fetch_add
  /// does too, so the load of `submitted` here sees the new count and
  /// the worker keeps polling; otherwise that load sees the 1 and the
  /// producer wakes the worker. stop() pairs the same way through
  /// `stop_`: it stores the flag, then rings.
  bool park(const std::atomic<bool>& stop) {
    doorbell.store(1, std::memory_order_seq_cst);
    const bool quiet =
        submitted.load(std::memory_order_seq_cst) ==
            counters.processed.value() &&
        !stop.load(std::memory_order_seq_cst);
    if (quiet) {
      counters.parks.inc();
      doorbell.wait(1, std::memory_order_seq_cst);
    }
    doorbell.store(0, std::memory_order_relaxed);
    return quiet;
  }

  /// Wake the worker if it is parked: only the caller that takes the
  /// doorbell from 1 to 0 pays for the notify.
  void wake() {
    if (doorbell.exchange(0, std::memory_order_seq_cst) != 0) {
      doorbell.notify_one();
    }
  }
};

Dataplane::Dataplane(const util::Clock& clock,
                     dataplane::ServiceRegistry& registry, Config config)
    : clock_(clock),
      config_(normalize(std::move(config))),
      arena_(config_.pool.arena_slots),
      cache_(arena_) {
  // A slot from arena().try_alloc() comes home on a return ring like
  // any other, so an empty freelist takes a chunk of returned slots.
  arena_.set_reclaim([this] { reclaim_returns(); });
  workers_.reserve(config_.pool.workers);
  for (size_t i = 0; i < config_.pool.workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(clock_, registry, arena_, config_.pool));
    // Each worker's block exports under worker="i"; identical families
    // across workers merge into per-worker series of nnn_pool_*.
    Worker& w = *workers_.back();
    w.table_reader = tables_.register_reader();
    const std::string index = std::to_string(i);
    w.registration = telemetry::Registry::global().add_collector(
        [&w, labels = telemetry::LabelSet{{"worker", index}}](
            telemetry::SampleBuilder& builder) {
          w.counters.collect(builder, labels);
        });
  }
  if (config_.pool.verdict_capacity > 0) {
    verdicts_ = std::make_unique<MpscRing<VerdictRecord>>(
        config_.pool.verdict_capacity);
  }
  aliases_registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) { aliases_.collect(builder); });
}

Dataplane::~Dataplane() { stop(); }

size_t Dataplane::pop_returns(uint32_t* out, size_t max) {
  for (size_t tried = 0; tried < workers_.size(); ++tried) {
    SpscRing<uint32_t>& returns = workers_[next_return_]->returns;
    next_return_ = (next_return_ + 1) % workers_.size();
    if (const size_t n = returns.pop_batch(out, max)) return n;
  }
  return 0;
}

void Dataplane::reclaim_returns() {
  std::array<uint32_t, PacketArena::kChunk> slots{};
  const std::lock_guard lock(returns_mutex_);
  arena_.release_batch(slots.data(), pop_returns(slots.data(), slots.size()));
}

PacketHandle Dataplane::make_packet() {
  // An empty stash refills from the next worker's return ring that
  // holds any; only when none does, alloc() pops the freelist (see the
  // file comment of dataplane.h for why). The lock is uncontended
  // unless a try_alloc() on another thread is moving a chunk.
  if (cache_.empty()) {
    const std::lock_guard lock(returns_mutex_);
    cache_.refill([this](uint32_t* out, size_t max) {
      return pop_returns(out, max);
    });
  }
  PacketHandle handle = cache_.alloc();
  if (handle) reset_for_reuse(*handle);
  return handle;
}

bool Dataplane::ingest(PacketHandle&& handle) {
  return submit(std::move(handle), /*blocking=*/false);
}

void Dataplane::ingest_blocking(PacketHandle&& handle) {
  submit(std::move(handle), /*blocking=*/true);
}

size_t Dataplane::steer(const net::Packet& packet) {
  if (config_.policy == dataplane::DispatchPolicy::kDescriptorAffinity) {
    quic::learn_steering(aliases_, packet);
  }
  return route(packet);
}

bool Dataplane::submit(PacketHandle&& handle, bool blocking) {
  // Edits made on a drained, running plane reach the workers here,
  // one publish for however many edits, before any packet needs them.
  if (edits_pending_) publish_edits();
  if (!handle) {
    // Arena exhausted at make_packet(): record the shed on worker 0 so
    // the ledger keeps one home for every ingest attempt (attempts ==
    // processed + shed holds per worker).
    workers_[0]->counters.shed.add_shared();
    return false;
  }
  const size_t worker = steer(*handle);
  for (;;) {
    switch (try_enqueue(worker, handle.slot(), /*shed_on_full=*/!blocking)) {
      case EnqueueResult::kEnqueued:
        // The ring owns the slot now; the worker hands it back on its
        // return ring at emit.
        handle.detach();
        return true;
      case EnqueueResult::kShed:
        return false;  // ~handle returns the slot to the freelist
      case EnqueueResult::kRingFull:
        // Closed loop: wait for the worker instead of shedding. Yield
        // so the worker actually runs when cores are scarce.
        std::this_thread::yield();
        break;
    }
  }
}

void Dataplane::add_descriptor(const cookies::CookieDescriptor& descriptor) {
  if (publisher_ != &tables_) return;  // descriptor state owned by sync
  stage().upsert(descriptor);
}

void Dataplane::revoke(cookies::CookieId id) {
  if (publisher_ != &tables_) return;  // descriptor state owned by sync
  stage().revoke(id);
}

cookies::DescriptorStore& Dataplane::stage() {
  if (!edits_pending_) {
    // Copy on write: the published table holds every descriptor, and
    // staged_ was moved into it.
    if (const cookies::DescriptorTable* current = tables_.peek()) {
      staged_ = current->store();
    }
    edits_pending_ = true;
  }
  return staged_;
}

void Dataplane::publish_edits() {
  // Version 0: no DescriptorLog stands behind it, and the registry
  // sums nnn_controlplane_table_version over publishers.
  tables_.publish(std::make_unique<cookies::DescriptorTable>(
      0, std::exchange(staged_, {})));
  edits_pending_ = false;
}

void Dataplane::bind_table_publisher(
    controlplane::TablePublisher& publisher) {
  publisher_ = &publisher;
  staged_ = {};  // the sync channel owns descriptor state
  edits_pending_ = false;
  for (auto& worker : workers_) {
    worker->table_reader = publisher.register_reader();
  }
}

void Dataplane::set_fault_injector(const fault::Injector* injector) {
  injector_ = injector;
}

void Dataplane::start() {
  if (running_) return;
  if (edits_pending_) publish_edits();
  stop_.store(false, std::memory_order_release);
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
  running_ = true;
  util::log_debug_tagged(
      "runtime", "started {} workers (ring={}, batch={}, arena={})",
      workers_.size(), workers_[0]->ring.capacity(), config_.pool.batch_size,
      arena_.capacity());
}

void Dataplane::drain() {
  for (auto& worker : workers_) {
    unsigned rounds = 0;
    for (;;) {
      const uint64_t submitted =
          worker->submitted.load(std::memory_order_acquire);
      const uint64_t processed = worker->counters.processed.value_acquire();
      if (processed >= submitted) break;
      if (!running_) {
        // Not started: nothing will ever drain the ring.
        break;
      }
      spin_then_yield(rounds);
    }
  }
}

void Dataplane::stop() {
  // Return the producer stash first so the post-stop leak gate
  // (arena().outstanding() == 0) holds without caveats.
  cache_.flush();
  if (!running_) return;
  // seq_cst: pairs with the try_enqueue() re-check (see there), and
  // with a worker's park(), whose load of stop_ either sees this store
  // or comes before it, so that the wake() below finds it parked.
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& worker : workers_) worker->wake();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Emitted slots still on their way home go back to the freelist,
  // a wedged worker's too. The lock keeps a try_alloc() racing this
  // stop() out of the rings until they are empty.
  {
    const std::lock_guard lock(returns_mutex_);
    for (auto& worker : workers_) {
      uint32_t slot = PacketHandle::kNil;
      while (worker->returns.try_pop(slot)) arena_.release_raw(slot);
    }
  }
  // Reclaim leftovers into the shed ledger, releasing their arena
  // slots. Workers normally exit with empty rings, but a fault-paused
  // worker exits wedged, and an ingest that passed the stop_ gate
  // before the store above may land its push after the join. Pop until
  // processed + reclaimed covers submitted; the residual gap
  // (count-first enqueue between its fetch_add and the push/rollback)
  // resolves in bounded time. After this loop every slot that entered
  // a ring is back on the freelist.
  for (auto& worker : workers_) {
    uint32_t slot = PacketHandle::kNil;
    uint64_t reclaimed = 0;
    for (;;) {
      while (worker->ring.try_pop(slot)) {
        arena_.release_raw(slot);
        ++reclaimed;
      }
      const uint64_t submitted =
          worker->submitted.load(std::memory_order_seq_cst);
      const uint64_t processed = worker->counters.processed.value_acquire();
      if (processed + reclaimed >= submitted) break;
      std::this_thread::yield();
    }
    if (reclaimed > 0) worker->counters.shed.add_shared(reclaimed);
  }
  running_ = false;
}

Dataplane::EnqueueResult Dataplane::try_enqueue(size_t worker,
                                                uint32_t slot,
                                                bool shed_on_full) {
  Worker& w = *workers_[worker];
  // Admission gate: shed before counting into `submitted`, so the
  // quiescence ledger only tracks packets that enter a ring. A plane
  // that is stopping sheds everything (nothing will drain the ring);
  // an armed injector models overload bursts the same way a full ring
  // does. Shed == fail-open: the caller forwards unverified.
  if (stop_.load(std::memory_order_seq_cst) ||
      (injector_ != nullptr &&
       injector_->reject_admission(static_cast<uint32_t>(worker),
                                   clock_.now()))) {
    w.counters.shed.add_shared();
    return EnqueueResult::kShed;
  }
  // Count first, push second: a drain() racing with this enqueue
  // either sees submitted > processed (waits, correct) or the push has
  // not happened yet and the decrement below undoes the count.
  w.submitted.fetch_add(1, std::memory_order_seq_cst);
  // Re-check the stop gate AFTER publishing the count. Store-buffer
  // pairing with stop() (both sides seq_cst): either this load sees
  // the stop and rolls back, or stop()'s reclaim loop sees our count
  // and waits for the push to land. Without it, an ingest in flight
  // across stop() could strand a counted packet in a dead ring and
  // break attempts == processed + shed.
  if (stop_.load(std::memory_order_seq_cst)) {
    w.submitted.fetch_sub(1, std::memory_order_release);
    w.counters.shed.add_shared();
    return EnqueueResult::kShed;
  }
  if (w.ring.try_push(uint32_t{slot})) {
    // Wake the worker if it parked. This seq_cst load comes after the
    // seq_cst fetch_add above, and Worker::park() stores the doorbell
    // before it loads `submitted`: either this load sees the worker
    // parked, or the worker sees the count and keeps polling. One load
    // per packet, on the line the fetch_add just wrote.
    if (w.doorbell.load(std::memory_order_seq_cst) != 0) w.wake();
    return EnqueueResult::kEnqueued;
  }
  w.submitted.fetch_sub(1, std::memory_order_release);
  if (!shed_on_full) return EnqueueResult::kRingFull;
  w.counters.shed.add_shared();
  return EnqueueResult::kShed;
}

void Dataplane::worker_main(size_t index) {
  Worker& w = *workers_[index];
  const size_t batch_size = config_.pool.batch_size;
  std::vector<uint32_t> slots(batch_size);
  std::vector<net::Packet*> batch(batch_size);
  std::vector<dataplane::Verdict> verdicts(batch_size);
  // 0 while bursts keep coming; once the ring turns empty, the polls
  // spun so far (spin_then_yield stops counting when it starts to
  // yield). park_at is when this idle period's poll budget runs out.
  unsigned idle_polls = 0;
  std::chrono::steady_clock::time_point park_at;
  for (;;) {
    // Injected pause: a wedged/descheduled process. Don't consume;
    // keep re-checking so the schedule's end resumes us. stop() still
    // wins — it reclaims whatever we leave in the ring — else a pause
    // outliving the test would wedge shutdown too.
    if (injector_ != nullptr &&
        injector_->paused(static_cast<uint32_t>(index), clock_.now())) {
      w.table_reader.park();
      if (stop_.load(std::memory_order_acquire)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const size_t n = w.ring.pop_batch(slots.data(), batch_size);
    if (n == 0) {
      if (idle_polls == 0) {
        // The ring just turned empty. Park the epoch reader, once: an
        // idle worker must not pin a retired table. It holds no slots;
        // each went home as it was emitted.
        w.table_reader.park();
        park_at = std::chrono::steady_clock::now() + kIdlePollBudget;
      }
      // Exit only once the ring is empty, so in-flight packets are
      // always processed (deterministic final counts).
      if (stop_.load(std::memory_order_acquire)) break;
      // Poll until the budget runs out, then sleep on the doorbell
      // until ingest() or stop() rings it. A park called off because a
      // packet is on its way is one more poll.
      if (std::chrono::steady_clock::now() < park_at || !w.park(stop_)) {
        spin_then_yield(idle_polls);
      }
      continue;
    }
    idle_polls = 0;
    // Run-to-completion burst: verify -> classify -> QoS-mark -> emit
    // in one pass over the arena-resident packets; the only per-packet
    // data this loop moves is the 4-byte slot index popped above.
    // Epoch swap point first: pin the control plane's current table
    // for this burst. Two uncontended atomic ops; the old table is
    // reclaimable the moment every worker has moved on or parked.
    w.verifier.set_external_table(w.table_reader.acquire());
    for (size_t i = 0; i < n; ++i) batch[i] = &arena_.at(slots[i]);
    const telemetry::ScopedTimer batch_timer(w.counters.batch_nanos,
                                             w.burst_sample.next());
    const uint64_t t0 = thread_cpu_micros();
    // The whole burst goes through the middlebox batch path: one clock
    // read, and cookie MACs verified via the descriptor-grouped
    // CookieVerifier::verify_batch instead of per-packet calls.
    w.middlebox.process_batch(std::span<net::Packet* const>(batch.data(), n),
                              std::span(verdicts.data(), n));
    for (size_t i = 0; i < n; ++i) {
      if (verdicts_) {
        const net::Packet& packet = *batch[i];
        const dataplane::Verdict& verdict = verdicts[i];
        VerdictRecord record;
        record.worker = static_cast<uint32_t>(index);
        record.seq = packet.seq;
        record.tuple = packet.tuple;
        record.has_action = verdict.action.has_value();
        record.mapped_now = verdict.mapped_now;
        record.verify_status = verdict.verify_status;
        if (!verdicts_->try_push(std::move(record))) {
          w.counters.verdicts_dropped.inc();
        }
      }
      // Emit: the packet leaves the cookie layer here, and its slot
      // goes home through the return ring, whose release store
      // publishes what this burst wrote into it.
      const bool returned = w.returns.try_push(uint32_t{slots[i]});
      assert(returned && "a return ring holds every arena slot");
      (void)returned;
    }
    auto& c = w.counters;
    c.batches.inc();
    c.busy_micros.inc(thread_cpu_micros() - t0);
    // Release: publishes the middlebox/verifier mutations above to
    // whoever acquires `processed` (drain, snapshot readers).
    c.processed.inc_release(n);
  }
  w.table_reader.park();
}

RuntimeSnapshot Dataplane::snapshot() const {
  RuntimeSnapshot snap;
  snap.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    snap.workers.push_back(snapshot_of(worker->counters));
  }
  return snap;
}

uint64_t Dataplane::total_verified() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->verifier.stats().count(cookies::VerifyStatus::kOk);
  }
  return total;
}

uint64_t Dataplane::total_replays_detected() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total +=
        worker->verifier.stats().count(cookies::VerifyStatus::kReplayed);
  }
  return total;
}

size_t Dataplane::drain_verdicts(std::vector<VerdictRecord>& out) {
  if (!verdicts_) return 0;
  VerdictRecord record;
  size_t n = 0;
  while (verdicts_->try_pop(record)) {
    out.push_back(std::move(record));
    ++n;
  }
  return n;
}

const dataplane::Middlebox& Dataplane::middlebox(size_t worker) const {
  return workers_[worker]->middlebox;
}

const cookies::CookieVerifier& Dataplane::verifier(size_t worker) const {
  return workers_[worker]->verifier;
}

}  // namespace nnn::runtime
