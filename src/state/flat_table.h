// Open-addressing hash tables for the verify hot path.
//
// std::unordered_map costs one heap node and one-to-two dependent
// pointer loads per lookup; at ISP scale (millions of descriptors,
// tens of millions of outstanding uuids) that is a cache miss per
// probe and ~56 B of allocator overhead per entry. FlatTable is the
// classic group-of-16 control-byte layout instead:
//
//   ctrl:  one byte per slot — 0x80 empty, 0xFE tombstone, else the
//          low 7 bits of the element's hash (H2).
//   slots: the elements themselves, in one flat allocation.
//
// A lookup loads one 16-byte control group, compares all 16 bytes
// against H2 in a single SSE2 op (portable byte-loop fallback), and
// only touches element memory on a control-byte hit. Groups are
// aligned 16-slot blocks, so no mirrored control tail is needed.
// Probing is triangular over groups (visits every group; slot count
// is a power of two). Max load factor is 7/8, tombstones included.
// When tombstones are what fills a table, it rehashes at the same size
// only while live elements hold at most 25/32 of the slots (abseil's
// rule), and doubles otherwise: a table churning near 7/8 live load
// would rehash every few thousand operations, moving every element
// each time. Rehash never migrates tombstones, so a table that churns
// in place stays clean without a stop-the-world purge.
//
// The element type is opaque to the table: callers pass the hash and
// a `match(const T&)` predicate per call (and an `elem_hash(const T&)`
// where rehash may move elements). That keeps keys out of the table's
// type, enables heterogeneous lookup, and lets handle-table users
// (element = u32 index into a stable pool) probe without touching the
// pool until the control bytes say "candidate".
//
// Thread-compatibility matches std::unordered_map: concurrent readers
// are fine on a table no thread mutates (the epoch-swap publication
// path); any mutation requires exclusive access.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <algorithm>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "util/hash.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define NNN_STATE_HAVE_SSE2 1
#endif

namespace nnn::state {

/// Ask the cache for the line holding `p`, without waiting for it.
/// An asm statement rather than __builtin_prefetch: g++ deletes a loop
/// whose body is only __builtin_prefetch calls (the loop is finite and
/// has no side effects), which silently turns a prefetch pass into
/// nothing. `p` must point into a live object; nothing is read.
inline void prefetch_line(const void* p) {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetcht0 %0" ::"m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p);
#endif
}

/// splitmix64 finalizer. User-supplied hashes (std::hash<uint64_t> is
/// the identity on libstdc++; sequential cookie ids are the common
/// case) must be avalanched before the table splits them into a group
/// index and a 7-bit control byte, or clustered keys overflow groups.
/// The definition is shared with the RX demux's shard steering
/// (util::steer_shard) so worker ownership and probe sequences can
/// never disagree about a key's hash.
constexpr uint64_t mix_hash(uint64_t x) { return util::mix64(x); }

/// Probe-length distribution over a table's live elements (groups
/// examined per lookup, so 1 is a first-group hit). Computed by
/// re-probing each element from its home group — an offline scan for
/// benches and publish-time gauges, not a hot-path counter.
struct ProbeStats {
  uint64_t samples = 0;
  double mean = 0.0;
  uint32_t p50 = 0;
  uint32_t p99 = 0;
  uint32_t max = 0;
};

template <class T>
class FlatTable {
 public:
  static constexpr size_t kGroupWidth = 16;
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr uint8_t kDeleted = 0xFE;
  static constexpr size_t kMinSlots = 16;

  FlatTable() = default;
  FlatTable(const FlatTable& other) { copy_from(other); }
  FlatTable& operator=(const FlatTable& other) {
    if (this != &other) {
      destroy();
      copy_from(other);
    }
    return *this;
  }
  FlatTable(FlatTable&& other) noexcept { steal(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }
  ~FlatTable() { destroy(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t slot_count() const { return slot_count_; }

  /// Bytes owned by the table arrays (control bytes + element slots).
  size_t memory_bytes() const {
    return slot_count_ * (sizeof(T) + sizeof(uint8_t));
  }

  /// Find the element matching (hash, match). `probes`, when non-null,
  /// receives the number of control groups examined.
  template <class Match>
  T* find(uint64_t hash, Match&& match, uint32_t* probes = nullptr) {
    if (slot_count_ == 0) {
      if (probes != nullptr) *probes = 0;
      return nullptr;
    }
    const uint8_t h2 = static_cast<uint8_t>(hash & 0x7f);
    size_t group = (hash >> 7) & group_mask_;
    size_t step = 0;
    uint32_t examined = 0;
    while (true) {
      ++examined;
      const uint8_t* ctrl = ctrl_ + group * kGroupWidth;
      uint32_t m = match_byte(ctrl, h2);
      while (m != 0) {
        const unsigned bit = count_trailing_zeros(m);
        T* candidate = slots_ + group * kGroupWidth + bit;
        if (match(const_cast<const T&>(*candidate))) {
          if (probes != nullptr) *probes = examined;
          return candidate;
        }
        m &= m - 1;
      }
      if (match_empty(ctrl) != 0) {
        if (probes != nullptr) *probes = examined;
        return nullptr;
      }
      step += 1;
      group = (group + step) & group_mask_;
      assert(step <= group_count() && "FlatTable probe wrapped: no empty slot");
    }
  }

  template <class Match>
  const T* find(uint64_t hash, Match&& match, uint32_t* probes = nullptr) const {
    return const_cast<FlatTable*>(this)->find(hash, std::forward<Match>(match),
                                              probes);
  }

  /// Prefetch the control group and the element group a lookup of
  /// `hash` probes first. A hint: reads nothing, changes nothing.
  void prefetch(uint64_t hash) const {
    if (slot_count_ == 0) return;
    const size_t group = (hash >> 7) & group_mask_;
    prefetch_line(ctrl_ + group * kGroupWidth);
    prefetch_line(slots_ + group * kGroupWidth);
  }

  /// Find or default-insert. `make()` constructs the element only when
  /// absent; `elem_hash` rehashes survivors when growth triggers.
  /// Returns {element, inserted}.
  template <class Match, class ElemHash, class Make>
  std::pair<T*, bool> find_or_insert(uint64_t hash, Match&& match,
                                     ElemHash&& elem_hash, Make&& make,
                                     uint32_t* probes = nullptr) {
    if (slot_count_ != 0) {
      const uint8_t h2 = static_cast<uint8_t>(hash & 0x7f);
      size_t group = (hash >> 7) & group_mask_;
      size_t step = 0;
      uint32_t examined = 0;
      size_t insert_slot = kNoSlot;
      while (true) {
        ++examined;
        const uint8_t* ctrl = ctrl_ + group * kGroupWidth;
        uint32_t m = match_byte(ctrl, h2);
        while (m != 0) {
          const unsigned bit = count_trailing_zeros(m);
          T* candidate = slots_ + group * kGroupWidth + bit;
          if (match(const_cast<const T&>(*candidate))) {
            if (probes != nullptr) *probes = examined;
            return {candidate, false};
          }
          m &= m - 1;
        }
        if (insert_slot == kNoSlot) {
          const uint32_t tomb = match_exact(ctrl, kDeleted);
          if (tomb != 0) {
            insert_slot = group * kGroupWidth + count_trailing_zeros(tomb);
          }
        }
        const uint32_t empty = match_empty(ctrl);
        if (empty != 0) {
          if (insert_slot == kNoSlot) {
            insert_slot = group * kGroupWidth + count_trailing_zeros(empty);
          }
          if (probes != nullptr) *probes = examined;
          if (!needs_growth()) {
            return {emplace_at(insert_slot, h2, make()), true};
          }
          break;  // grow, then place in the fresh table
        }
        step += 1;
        group = (group + step) & group_mask_;
      }
    } else if (probes != nullptr) {
      *probes = 0;
    }
    rehash_for(size_ + 1, elem_hash);
    T* placed = place_new(hash, make());
    return {placed, true};
  }

  /// Erase the element matching (hash, match). Returns whether an
  /// element was erased. A slot whose group still has an empty byte is
  /// re-marked empty (no probe chain can pass it); otherwise it becomes
  /// a tombstone that the next rehash drops.
  template <class Match>
  bool erase(uint64_t hash, Match&& match) {
    T* elem = find(hash, std::forward<Match>(match));
    if (elem == nullptr) return false;
    erase_element(elem);
    return true;
  }

  /// Erase via a pointer previously returned by find/find_or_insert.
  void erase_element(T* elem) {
    const size_t slot = static_cast<size_t>(elem - slots_);
    assert(slot < slot_count_ && is_full(ctrl_[slot]));
    elem->~T();
    const size_t group = slot / kGroupWidth;
    if (match_empty(ctrl_ + group * kGroupWidth) != 0) {
      ctrl_[slot] = kEmpty;
    } else {
      ctrl_[slot] = kDeleted;
      ++tombstones_;
    }
    --size_;
  }

  template <class Fn>
  void for_each(Fn&& fn) {
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i])) fn(slots_[i]);
    }
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i])) fn(const_cast<const T&>(slots_[i]));
    }
  }

  /// Erase every element for which `pred` returns true; returns the
  /// number erased.
  template <class Pred>
  size_t erase_if(Pred&& pred) {
    size_t erased = 0;
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i]) && pred(const_cast<const T&>(slots_[i]))) {
        erase_element(slots_ + i);
        ++erased;
      }
    }
    return erased;
  }

  void clear() {
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i])) slots_[i].~T();
    }
    if (ctrl_ != nullptr) std::memset(ctrl_, kEmpty, slot_count_);
    size_ = 0;
    tombstones_ = 0;
  }

  /// Ensure capacity for `n` elements without intervening rehash.
  template <class ElemHash>
  void reserve(size_t n, ElemHash&& elem_hash) {
    if (n * 8 > slot_count_ * 7) rehash_for(n, elem_hash);
  }

  template <class ElemHash>
  ProbeStats probe_stats(ElemHash&& elem_hash, size_t max_samples) const {
    ProbeStats stats;
    if (size_ == 0 || slot_count_ == 0) return stats;
    std::vector<uint32_t> lengths;
    lengths.reserve(std::min(size_, max_samples));
    const size_t stride = std::max<size_t>(1, size_ / std::max<size_t>(
                                                  1, max_samples));
    size_t seen = 0;
    uint64_t total = 0;
    for (size_t i = 0; i < slot_count_; ++i) {
      if (!is_full(ctrl_[i])) continue;
      if (seen++ % stride != 0) continue;
      const uint64_t hash = elem_hash(const_cast<const T&>(slots_[i]));
      const size_t home = (hash >> 7) & group_mask_;
      const size_t group = i / kGroupWidth;
      // Distance in probe steps from home to this group (triangular
      // sequence over a power-of-two group count visits each group
      // exactly once per cycle).
      uint32_t probes = 1;
      size_t g = home;
      size_t step = 0;
      while (g != group && probes <= group_count()) {
        step += 1;
        g = (g + step) & group_mask_;
        ++probes;
      }
      lengths.push_back(probes);
      total += probes;
      stats.max = std::max(stats.max, probes);
    }
    if (lengths.empty()) return stats;
    stats.samples = lengths.size();
    stats.mean = static_cast<double>(total) / lengths.size();
    std::sort(lengths.begin(), lengths.end());
    stats.p50 = lengths[lengths.size() / 2];
    stats.p99 = lengths[(lengths.size() * 99) / 100];
    return stats;
  }

 private:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  static bool is_full(uint8_t ctrl) { return (ctrl & 0x80) == 0; }

  static unsigned count_trailing_zeros(uint32_t m) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<unsigned>(__builtin_ctz(m));
#else
    unsigned n = 0;
    while ((m & 1u) == 0) {
      m >>= 1;
      ++n;
    }
    return n;
#endif
  }

  /// Bitmask of slots in the 16-byte control group equal to `byte`.
  static uint32_t match_exact(const uint8_t* ctrl, uint8_t byte) {
#if NNN_STATE_HAVE_SSE2
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(byte));
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#else
    uint32_t m = 0;
    for (size_t i = 0; i < kGroupWidth; ++i) {
      if (ctrl[i] == byte) m |= 1u << i;
    }
    return m;
#endif
  }

  static uint32_t match_byte(const uint8_t* ctrl, uint8_t h2) {
    return match_exact(ctrl, h2);
  }

  static uint32_t match_empty(const uint8_t* ctrl) {
    return match_exact(ctrl, kEmpty);
  }

  size_t group_count() const { return slot_count_ / kGroupWidth; }

  bool needs_growth() const {
    // 7/8 max load counting tombstones: a tombstone costs probe work
    // exactly like a live slot does.
    return (size_ + tombstones_ + 1) * 8 > slot_count_ * 7;
  }

  T* emplace_at(size_t slot, uint8_t h2, T&& value) {
    if (ctrl_[slot] == kDeleted) --tombstones_;
    ::new (static_cast<void*>(slots_ + slot)) T(std::move(value));
    ctrl_[slot] = h2;
    ++size_;
    return slots_ + slot;
  }

  /// Place into a table known to have a free slot and no matching
  /// element (used right after rehash).
  T* place_new(uint64_t hash, T&& value) {
    const uint8_t h2 = static_cast<uint8_t>(hash & 0x7f);
    size_t group = (hash >> 7) & group_mask_;
    size_t step = 0;
    while (true) {
      const uint8_t* ctrl = ctrl_ + group * kGroupWidth;
      const uint32_t avail =
          match_empty(ctrl) | match_exact(ctrl, kDeleted);
      if (avail != 0) {
        const size_t slot =
            group * kGroupWidth + count_trailing_zeros(avail);
        return emplace_at(slot, h2, std::move(value));
      }
      step += 1;
      group = (group + step) & group_mask_;
    }
  }

  template <class ElemHash>
  void rehash_for(size_t n, ElemHash&& elem_hash) {
    size_t target = kMinSlots;
    while (n * 8 > target * 7) target *= 2;
    // A same-size target means tombstones, not live load, forced this
    // rehash. Migration drops them all, but at a high live load it
    // frees little room and the next rehash comes soon: keep the size
    // only while live elements fill at most 25/32 of it.
    if (target == slot_count_ && size_ * 32 > slot_count_ * 25) target *= 2;
    uint8_t* old_ctrl = ctrl_;
    T* old_slots = slots_;
    const size_t old_count = slot_count_;

    slot_count_ = target;
    group_mask_ = group_count() - 1;
    ctrl_ = new uint8_t[slot_count_];
    std::memset(ctrl_, kEmpty, slot_count_);
    slots_ = static_cast<T*>(
        ::operator new(slot_count_ * sizeof(T), std::align_val_t{alignof(T)}));
    size_ = 0;
    tombstones_ = 0;

    for (size_t i = 0; i < old_count; ++i) {
      if (!is_full(old_ctrl[i])) continue;
      T& elem = old_slots[i];
      place_new(elem_hash(const_cast<const T&>(elem)), std::move(elem));
      elem.~T();
    }
    delete[] old_ctrl;
    if (old_slots != nullptr) {
      ::operator delete(old_slots, std::align_val_t{alignof(T)});
    }
  }

  void destroy() {
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i])) slots_[i].~T();
    }
    delete[] ctrl_;
    if (slots_ != nullptr) {
      ::operator delete(slots_, std::align_val_t{alignof(T)});
    }
    ctrl_ = nullptr;
    slots_ = nullptr;
    slot_count_ = 0;
    group_mask_ = 0;
    size_ = 0;
    tombstones_ = 0;
  }

  void copy_from(const FlatTable& other) {
    slot_count_ = other.slot_count_;
    group_mask_ = other.group_mask_;
    size_ = other.size_;
    tombstones_ = other.tombstones_;
    if (slot_count_ == 0) return;
    ctrl_ = new uint8_t[slot_count_];
    std::memcpy(ctrl_, other.ctrl_, slot_count_);
    slots_ = static_cast<T*>(
        ::operator new(slot_count_ * sizeof(T), std::align_val_t{alignof(T)}));
    for (size_t i = 0; i < slot_count_; ++i) {
      if (is_full(ctrl_[i])) {
        ::new (static_cast<void*>(slots_ + i)) T(other.slots_[i]);
      }
    }
  }

  void steal(FlatTable& other) {
    ctrl_ = std::exchange(other.ctrl_, nullptr);
    slots_ = std::exchange(other.slots_, nullptr);
    slot_count_ = std::exchange(other.slot_count_, 0);
    group_mask_ = std::exchange(other.group_mask_, 0);
    size_ = std::exchange(other.size_, 0);
    tombstones_ = std::exchange(other.tombstones_, 0);
  }

  uint8_t* ctrl_ = nullptr;
  T* slots_ = nullptr;
  size_t slot_count_ = 0;
  size_t group_mask_ = 0;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

/// Map adapter over FlatTable for call sites that want the familiar
/// key/value shape (FlowTable, tests). Applies mix_hash on top of the
/// user hash, so identity std::hash over clustered keys is safe.
template <class K, class V, class Hash = std::hash<K>,
          class Eq = std::equal_to<K>>
class FlatMap {
 public:
  struct Item {
    K key;
    V value;
  };

  V* find(const K& key) {
    Item* item = table_.find(hash_of(key), matcher(key));
    return item == nullptr ? nullptr : &item->value;
  }
  const V* find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Returns {item, inserted}; value-initializes on insert.
  std::pair<Item*, bool> try_emplace(const K& key) {
    return table_.find_or_insert(
        hash_of(key), matcher(key), elem_hasher(),
        [&] { return Item{key, V{}}; });
  }

  bool erase(const K& key) { return table_.erase(hash_of(key), matcher(key)); }

  template <class Fn>
  void for_each(Fn&& fn) {
    table_.for_each([&](Item& item) { fn(item); });
  }
  template <class Pred>
  size_t erase_if(Pred&& pred) {
    return table_.erase_if(std::forward<Pred>(pred));
  }

  void reserve(size_t n) { table_.reserve(n, elem_hasher()); }
  void clear() { table_.clear(); }
  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }
  size_t memory_bytes() const { return table_.memory_bytes(); }
  ProbeStats probe_stats(size_t max_samples) const {
    return table_.probe_stats(elem_hasher(), max_samples);
  }

 private:
  uint64_t hash_of(const K& key) const {
    return mix_hash(static_cast<uint64_t>(hash_(key)));
  }
  auto matcher(const K& key) const {
    return [this, &key](const Item& item) { return eq_(item.key, key); };
  }
  auto elem_hasher() const {
    return [this](const Item& item) { return hash_of(item.key); };
  }

  FlatTable<Item> table_;
  Hash hash_;
  Eq eq_;
};

}  // namespace nnn::state
