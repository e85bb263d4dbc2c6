// Network-side cookie verification (Listing 3, match_cookie).
//
// The verifier owns the descriptor state a cookie-enabled switch or
// middlebox matches against, replay protection, and the four checks
// of §4.2: (i) the cookie ID is known, (ii) the MAC digest matches
// (constant-time), (iii) the timestamp is within the network
// coherency time, (iv) the cookie has not been seen before.
//
// Hot-path shape (§4.6, Fig. 4): MAC verification resumes from
// precomputed ipad/opad SHA-256 midstates instead of re-deriving the
// key schedule — half the compressions per cookie. Every id resolves
// through one current DescriptorTable (the verifier's own, or one the
// control plane published) and a bounded cookies::HotTier keyed by
// table epoch: descriptors actually hit stay resident with midstates,
// cold ones are 64-byte table records rehydrated on first hit, so a
// million-descriptor table does not mean a million midstates.
// verify_batch() amortizes the remaining per-call costs (clock read,
// descriptor lookup) across a burst, the unit of work the runtime's
// rings hand to a worker.
//
// Replay scope: the verifier keeps ONE uuid-keyed ReplayCache for all
// descriptors, whichever table it reads — the paper's one list of
// recently seen cookies. Uuids are 128-bit randoms minted per cookie,
// so cross-descriptor uuid reuse is adversarial and rejecting it is
// strictly more conservative; in exchange replay state is O(outstanding
// cookies), not O(descriptors), under one capacity clamp. Use-once
// state survives table swaps and a remove() followed by a re-add. Under
// descriptor affinity (§4.6) each worker owns one verifier, so one
// cache per shard is all use-once needs.
//
// A failed match never drops traffic: "If it fails to match, it
// behaves as if the cookie was not there, offering default services."
// Callers therefore receive a VerifyResult and decide nothing more
// severe than best-effort treatment.
//
// ## Threading: the single-writer contract
//
// A CookieVerifier is NOT thread-safe. Exactly one thread at a time may
// call any mutating, verifying, or resolving member (add_descriptor,
// revoke, remove, verify*, find, reset_stats, set_external_table):
// verification mutates the replay cache, the hot tier, and status
// counters, and a concurrent add/remove rehashes the own table's index
// that an in-flight verify_batch is probing — a data race and potential
// use-after-free with no diagnostic. Debug builds enforce the contract
// with an atomic owner check that aborts on a cross-thread overlap;
// release builds compile the check out. To feed descriptor updates to a
// verifier that another thread is running hot, do not call
// add_descriptor/revoke across threads — publish an immutable
// DescriptorTable through controlplane::TablePublisher and hand it to
// the verifying thread via set_external_table (runtime::Dataplane does
// exactly this, with its own publisher or one bound through
// bind_table_publisher).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cookies/cookie.h"
#include "cookies/descriptor.h"
#include "cookies/descriptor_table.h"
#include "cookies/hot_tier.h"
#include "cookies/replay_cache.h"
#include "crypto/hmac.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/view.h"
#include "util/clock.h"

namespace nnn::cookies {

/// Network coherency time: "the maximum time we expect a packet to
/// live within the network, and is set to 5 seconds" (§4.2).
inline constexpr util::Timestamp kNetworkCoherencyTime =
    5 * util::kSecond;

enum class VerifyStatus : uint8_t {
  kOk = 0,
  kUnknownId,        // check (i) failed
  kBadSignature,     // check (ii) failed
  kStaleTimestamp,   // check (iii) failed (too old or too far in future)
  kReplayed,         // check (iv) failed
  kDescriptorExpired,
  kDescriptorRevoked,
  kMalformed,        // wire/text blob did not decode to a cookie at all
};

// to_string(VerifyStatus) lives in telemetry/labels.h (included above):
// one header home, std::string_view return, no per-sample allocation.

/// A live descriptor as verify*() and find() hand it out: the id and
/// key schedule of its hot-tier entry, and the service data and
/// attributes of the interned profile the entry indexes in the current
/// table's store. Nothing is copied. The attributes carry no
/// expires_at: expiry is per record, and the verifier checks it.
class DescriptorView {
 public:
  DescriptorView(const HotTier::Entry& entry, const DescriptorStore& store)
      : entry_(&entry), store_(&store) {}

  CookieId cookie_id() const { return entry_->id; }
  const std::string& service_data() const {
    return store_->profile(entry_->profile).service_data;
  }
  const Attributes& attributes() const {
    return store_->profile(entry_->profile).attributes;
  }
  const crypto::HmacKeySchedule& schedule() const { return entry_->schedule; }

 private:
  const HotTier::Entry* entry_;
  const DescriptorStore* store_;
};

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kUnknownId;
  /// Set when status == kOk. Points into the verifier's hot tier and
  /// current table, and is valid until the next verify*, find or
  /// set_external_table call on that verifier (which may recycle
  /// evicted slots, revalidate the entry in place, or drop the table).
  /// Read it before calling the verifier again.
  std::optional<DescriptorView> descriptor;

  bool ok() const { return status == VerifyStatus::kOk; }
};

class CookieVerifier {
 public:
  /// The clock must outlive the verifier. Construction registers the
  /// verifier's metric families (nnn_verify_total{status=...},
  /// nnn_verifier_descriptors, nnn_verify_batch_nanos, nnn_state_*)
  /// with the process registry; destruction deregisters them. Pinned
  /// in memory (non-copyable/movable) because the registry collector
  /// holds `this` — place instances in stable storage (member, deque,
  /// unique_ptr), never in a relocating vector.
  explicit CookieVerifier(const util::Clock& clock,
                          util::Timestamp nct = kNetworkCoherencyTime);
  CookieVerifier(const CookieVerifier&) = delete;
  CookieVerifier& operator=(const CookieVerifier&) = delete;

  /// Install a descriptor in the verifier's own table (the network
  /// side learned it when issuing). Replaces any existing descriptor
  /// with the same id.
  void add_descriptor(const CookieDescriptor& descriptor);

  /// Read an immutable DescriptorTable the control plane published
  /// instead of the verifier's own table. The caller (the verifying
  /// thread) re-acquires and re-installs the current table before each
  /// burst; the table must stay valid until the next
  /// set_external_table call (the epoch reclamation in
  /// controlplane::TablePublisher guarantees this). nullptr means "no
  /// table yet" and verifies everything as kUnknownId. Replay and
  /// hot-tier state stay with the verifier, so use-once memory and
  /// warm midstates survive table swaps (the hot tier revalidates
  /// epoch-stamped entries lazily). One-way: later local edits go to
  /// the own table, which lookups no longer read. The first call
  /// clears the hot tier, since own and published epochs both count
  /// from 1.
  void set_external_table(const DescriptorTable* table);

  /// Revocation (§4.5): "the network can similarly stop matching
  /// against a cookie to stop offering a service." Returns true if the
  /// id had a record. Revoked ids, added or not, keep a tombstone so
  /// verification reports kDescriptorRevoked rather than kUnknownId.
  bool revoke(CookieId id);

  /// Remove entirely (descriptor and tombstone).
  bool remove(CookieId id);

  bool knows(CookieId id) const;
  /// The live descriptor for `id`, or nullptr (unknown, revoked or
  /// expired at the clock's now).
  /// Admits the record into the hot tier; the view and the pointer to
  /// it have VerifyResult::descriptor's lifetime.
  const DescriptorView* find(CookieId id) const;

  /// Run the §4.2 checks on a cookie. A kOk result records the uuid in
  /// the replay cache, so verifying the same cookie twice yields
  /// kReplayed the second time.
  VerifyResult verify(const Cookie& cookie);

  /// Batched verify: results[i] is the verdict for cookies[i]
  /// (results.size() >= cookies.size()). Reads the clock once and
  /// visits cookies grouped by descriptor (stable within a group), so
  /// the table lookup and key-schedule entry stay hot across a burst.
  /// Before any lookup it prefetches the index groups the burst's
  /// lookups start from (replay cache and hot tier), so their misses
  /// overlap. Verdicts
  /// and stats match running verify() sequentially over the batch, up
  /// to the single clock read (a burst spans microseconds against the
  /// NCT check's 5 s budget). One exception, adversarial only: a uuid
  /// re-signed under several descriptors in one burst is still
  /// accepted once, but the copy accepted is the one under the lowest
  /// descriptor id.
  void verify_batch(std::span<const Cookie> cookies,
                    std::span<VerifyResult> results);

  /// Decode-and-verify convenience for wire blobs. Undecodable blobs
  /// count as kMalformed.
  VerifyResult verify_wire(util::BytesView wire);
  VerifyResult verify_text(std::string_view text);

  /// One cell per VerifyStatus, the cells nnn_verify_total exports:
  /// `stats().count(VerifyStatus::kReplayed)`, `stats().total()`.
  /// Relaxed atomics, so readable from any thread.
  const telemetry::StatusCounters<VerifyStatus, kVerifyStatusCount>& stats()
      const {
    return status_;
  }
  void reset_stats();
  size_t descriptor_count() const { return table_->size(); }
  util::Timestamp nct() const { return nct_; }

  /// State knobs and introspection (bench/tests). set_hot_budget
  /// bounds resident midstates.
  void set_hot_budget(size_t budget) { hot_.set_budget(budget); }
  const HotTier& hot_tier() const { return hot_; }
  /// RESETS the verifier's one replay cache with a new capacity (use
  /// before traffic, e.g. to size for tens of millions of outstanding
  /// uuids).
  void configure_external_replay(size_t capacity);
  /// The verifier's one replay cache (see the class comment on replay
  /// scope).
  const ReplayCache& external_replay() const { return replays_; }

 private:
  /// A descriptor match: a hot-tier entry backed by a live record of
  /// the current table, or a tombstone (null entry).
  struct Resolved {
    const HotTier::Entry* entry = nullptr;
    bool revoked = false;
  };

  /// Debug-only single-writer enforcement (see the class comment).
  /// Reentrancy on the owning thread is fine — verify_wire calls
  /// verify — so ownership is per-thread, not per-call.
  class WriterCheck {
   public:
#ifndef NDEBUG
    explicit WriterCheck(const CookieVerifier& v);
    ~WriterCheck();

   private:
    const CookieVerifier* v_;
    bool outermost_;
#else
    explicit WriterCheck(const CookieVerifier&) {}
#endif
  };

  /// Hot tier first, then the current table's record. False when
  /// unknown.
  bool resolve(CookieId id, Resolved& out) const;
  /// After an edit of own_: bump its epoch so hot entries revalidate.
  void edited();
  /// Checks (ii)-(iv) + revocation/expiry against a resolved match.
  VerifyResult verify_resolved(const Resolved& match, const Cookie& cookie,
                               util::Timestamp now);
  /// Mirror plain hot-tier/replay counters into atomic telemetry
  /// cells, once per burst (cells are what collect() may read from
  /// another thread).
  void sync_state_metrics();
  void collect(telemetry::SampleBuilder& builder) const;

  const util::Clock& clock_;
  util::Timestamp nct_;
  /// The table local edits go to, current until set_external_table.
  DescriptorTable own_;
  /// The table every lookup reads: &own_, then a published table.
  const DescriptorTable* table_ = &own_;
  /// Midstate working set over the current table (mutable: find() is
  /// logically const but admits records on a cold hit).
  mutable HotTier hot_;
  /// What the last find() returned a pointer to.
  mutable std::optional<DescriptorView> found_;
  /// Verifier-wide use-once memory (see the class comment on replay
  /// scope).
  ReplayCache replays_;
#ifndef NDEBUG
  /// Thread currently inside a mutating/verifying member, or default
  /// (empty) id when none. See WriterCheck.
  mutable std::atomic<std::thread::id> writer_{};
#endif
  /// One cell per VerifyStatus outcome (stats()).
  telemetry::StatusCounters<VerifyStatus, kVerifyStatusCount> status_;
  telemetry::Gauge descriptors_;
  /// Nanoseconds per verify_batch burst; bursts under 32 cookies are
  /// timed 1-in-32 so the clock reads can't dominate tiny batches.
  telemetry::Histogram batch_nanos_;
  telemetry::SampleStride burst_sample_{32};
  /// nnn_state_* cells: synced from the hot tier and the replay cache
  /// at burst boundaries; sampled probe lengths recorded inline by
  /// both.
  telemetry::Gauge hot_resident_;
  telemetry::Counter hot_rehydrations_;
  telemetry::Counter hot_evictions_;
  telemetry::Gauge replay_entries_;
  telemetry::Gauge replay_wheel_occupied_;
  telemetry::Counter replay_capacity_evictions_;
  telemetry::Histogram probe_len_;
  /// Scratch index permutation for verify_batch (no per-batch alloc).
  std::vector<uint32_t> batch_order_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::cookies
