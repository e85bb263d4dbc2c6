// Typed views: a multi-field *Stats struct over registry cells.
//
// A component whose counters are several named facts (the middlebox's
// task classes, packets and bytes; the flow table's creates, expiries
// and lookups) keeps them as telemetry::Counter cells owned by a
// View<S>. The struct S is the accessor format: snapshot() copies the
// cells into one plain value a caller can hold, compare or pass on,
// and the ViewTraits table names each field's metric family once:
//
//   struct MiddleboxStats { uint64_t packets; ... };
//   template <> struct ViewTraits<MiddleboxStats> {
//     static constexpr std::array fields{
//         ViewField<MiddleboxStats>{&MiddleboxStats::packets,
//                                   MetricType::kCounter,
//                                   "nnn_middlebox_packets_total",
//                                   "Packets processed", "", ""},
//         ...};
//   };
//
//   telemetry::View<MiddleboxStats> stats_;
//   stats_.cell<&MiddleboxStats::packets>().inc();   // hot path
//   MiddleboxStats stats() const { return stats_.snapshot(); }
//
// cell<&S::field>() resolves the member pointer to a cell index at
// compile time (consteval lookup over the traits table), so the hot
// path is exactly the relaxed store a hand-rolled atomic field would
// be — the view costs nothing at runtime; it only centralizes naming,
// export, and the snapshot. Counts keyed by one enum (verify outcomes,
// hardware-filter decisions) use StatusCounters below instead, and
// callers read its cells directly.
//
// Views are pinned (non-copyable, non-movable): register_with() hands
// the registry a collector that captures `this`. Components therefore
// declare their View (and any Registration) LAST so collection can
// never observe a partially-destroyed owner. Dynamic collections of
// views use std::deque + emplace_back, which never relocates elements.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#include "telemetry/metrics.h"

namespace nnn::telemetry {

/// One struct field bound to a metric family. `label_key` /
/// `label_value` optionally stamp a per-field label (e.g. several
/// `task_*` fields fanning into one family keyed by task=...); empty
/// means no extra label beyond the view's base set.
template <typename S>
struct ViewField {
  uint64_t S::* member;
  MetricType type;  // kCounter or kGauge
  std::string_view family;
  std::string_view help;
  std::string_view label_key;
  std::string_view label_value;
};

/// Specialized next to each struct: a constexpr `fields` array
/// of ViewField<S> covering every member, in declaration order.
template <typename S>
struct ViewTraits;

template <typename S>
class View {
 public:
  static constexpr const auto& fields = ViewTraits<S>::fields;
  static constexpr size_t kFields = fields.size();

  View() = default;
  View(const View&) = delete;
  View& operator=(const View&) = delete;

  /// The live cell behind a struct field, resolved at compile time:
  /// `view.cell<&S::packets>().inc()`. Same single-writer contract as
  /// Counter.
  template <auto M>
  Counter& cell() noexcept {
    return cells_[index_of<M>()];
  }
  template <auto M>
  const Counter& cell() const noexcept {
    return cells_[index_of<M>()];
  }
  template <auto M>
  uint64_t value() const noexcept {
    return cell<M>().value();
  }

  /// Copy the cells into the struct, field for field.
  S snapshot() const {
    S s{};
    for (size_t i = 0; i < kFields; ++i) {
      s.*(fields[i].member) = cells_[i].value();
    }
    return s;
  }

  /// Reset every cell (reset_stats() paths).
  void reset() noexcept {
    for (auto& cell : cells_) cell.reset();
  }

  /// Append one sample per field, labeled base + the field's own
  /// label (if any). Usable directly or via register_with().
  void collect(SampleBuilder& builder, const LabelSet& base = {}) const {
    for (size_t i = 0; i < kFields; ++i) {
      const auto& field = fields[i];
      LabelSet labels = base;
      if (!field.label_key.empty()) {
        labels.add(field.label_key, field.label_value);
      }
      if (field.type == MetricType::kGauge) {
        builder.gauge(field.family, field.help, std::move(labels),
                      static_cast<int64_t>(cells_[i].value()));
      } else {
        builder.counter(field.family, field.help, std::move(labels),
                        cells_[i].value());
      }
    }
  }

  /// Register this view's collector; the base labels distinguish
  /// instances ({worker="2"}, {band="0"}, ...). The view must outlive
  /// nothing: its own Registration deregisters on destruction.
  void register_with(Registry& registry, LabelSet base = {}) {
    base_labels_ = std::move(base);
    registration_ = registry.add_collector(
        [this](SampleBuilder& builder) { collect(builder, base_labels_); });
  }
  void deregister() { registration_.release(); }

 private:
  template <auto M>
  static consteval size_t index_of() {
    for (size_t i = 0; i < kFields; ++i) {
      if (fields[i].member == M) return i;
    }
    throw "member is not listed in ViewTraits<S>::fields";
  }

  std::array<Counter, kFields> cells_{};
  LabelSet base_labels_;
  Registration registration_;  // last: released before cells_
};

/// Per-enum-value counters: one cell per status, indexed by the enum's
/// underlying value. Owners hand out a const reference and callers
/// read count(E) or total(), in the enum's own vocabulary.
template <typename E, size_t N>
class StatusCounters {
 public:
  static constexpr size_t kCount = N;

  /// Single-writer increment (see Counter::inc).
  void inc(E e, uint64_t n = 1) noexcept { cells_[index(e)].inc(n); }
  /// Multi-writer increment (fetch_add).
  void inc_shared(E e, uint64_t n = 1) noexcept {
    cells_[index(e)].add_shared(n);
  }
  uint64_t count(E e) const noexcept { return cells_[index(e)].value(); }
  uint64_t total() const noexcept {
    uint64_t sum = 0;
    for (const auto& cell : cells_) sum += cell.value();
    return sum;
  }
  void reset() noexcept {
    for (auto& cell : cells_) cell.reset();
  }
  Counter& cell(E e) noexcept { return cells_[index(e)]; }

  /// Equal when every value has the same count: differential tests
  /// compare two owners' outcomes in one assertion.
  friend bool operator==(const StatusCounters& a,
                         const StatusCounters& b) noexcept {
    for (size_t i = 0; i < N; ++i) {
      if (a.cells_[i].value() != b.cells_[i].value()) return false;
    }
    return true;
  }

  /// One sample per enum value, labeled `label_key=name(value)` on
  /// top of `base` — e.g. nnn_verify_total{status="replayed"}.
  template <typename NameFn>
  void collect(SampleBuilder& builder, std::string_view family,
               std::string_view help, NameFn&& name,
               std::string_view label_key = "status",
               const LabelSet& base = {}) const {
    for (size_t i = 0; i < N; ++i) {
      LabelSet labels = base;
      labels.add(label_key, name(static_cast<E>(i)));
      builder.counter(family, help, std::move(labels), cells_[i].value());
    }
  }

 private:
  static constexpr size_t index(E e) noexcept {
    return static_cast<size_t>(e);
  }
  std::array<Counter, N> cells_{};
};

}  // namespace nnn::telemetry
