// QoS primitives: token buckets and strict-priority queue sets.
//
// Boost "sends fast-lane traffic through a high priority queue, and
// occasionally throttles non-fast-lane traffic" (§5). These are the
// two mechanisms that implement that: a TokenBucket models the
// throttle (Linux tc-style policing of non-boosted traffic to a
// configured rate) and a PriorityQueueSet models the WMM-style strict
// priority queues at the AP. The simulator's links drain a
// PriorityQueueSet; the middlebox decides which band a packet joins.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "telemetry/view.h"
#include "util/clock.h"

namespace nnn::dataplane {

/// Per-band accounting for PriorityQueueSet (namespace scope so the
/// telemetry view traits can name it; PriorityQueueSet::BandStats
/// aliases it for existing call sites).
struct BandStats {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t dequeued = 0;
  uint64_t bytes = 0;  // currently queued bytes

  friend bool operator==(const BandStats&, const BandStats&) = default;
};

}  // namespace nnn::dataplane

namespace nnn::telemetry {

template <>
struct ViewTraits<dataplane::BandStats> {
  using S = dataplane::BandStats;
  static constexpr std::array fields{
      ViewField<S>{&S::enqueued, MetricType::kCounter,
                   "nnn_qos_band_enqueued_total",
                   "Packets accepted into a priority band", "", ""},
      ViewField<S>{&S::dropped, MetricType::kCounter,
                   "nnn_qos_band_dropped_total",
                   "Packets tail-dropped at a full priority band", "", ""},
      ViewField<S>{&S::dequeued, MetricType::kCounter,
                   "nnn_qos_band_dequeued_total",
                   "Packets drained from a priority band", "", ""},
      ViewField<S>{&S::bytes, MetricType::kGauge, "nnn_qos_band_bytes",
                   "Bytes currently queued in a priority band", "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::dataplane {

/// Classic token bucket: capacity `burst_bytes`, refilled at
/// `rate_bps/8` bytes per second. conforms() is a pure check;
/// try_consume() also spends the tokens.
class TokenBucket {
 public:
  TokenBucket(double rate_bps, uint32_t burst_bytes,
              util::Timestamp start = 0);

  bool try_consume(uint32_t bytes, util::Timestamp now);
  bool conforms(uint32_t bytes, util::Timestamp now) const;
  double tokens(util::Timestamp now) const;

  double rate_bps() const { return rate_bps_; }
  double burst_bytes() const { return burst_bytes_; }

 private:
  void refill(util::Timestamp now);

  double rate_bps_;
  double burst_bytes_;
  double tokens_;
  util::Timestamp last_refill_;
};

/// Strict-priority bands of FIFO queues with a shared-per-band byte
/// cap. Band 0 is highest priority. Tail-drop on overflow (drops are
/// what shapes the Fig. 5b best-effort/throttled CDFs).
class PriorityQueueSet {
 public:
  using BandStats = dataplane::BandStats;

  /// `band_capacity_bytes` applies to each band independently.
  /// Registers one nnn_qos_band_* sample set per band, labeled
  /// band="0".."N-1"; pinned (collectors hold `this`).
  PriorityQueueSet(size_t bands, uint32_t band_capacity_bytes);
  PriorityQueueSet(const PriorityQueueSet&) = delete;
  PriorityQueueSet& operator=(const PriorityQueueSet&) = delete;

  /// Enqueue into `band`; false (and drop) when the band is full.
  bool enqueue(net::Packet packet, size_t band);

  /// Dequeue from the highest-priority non-empty band.
  std::optional<net::Packet> dequeue();

  /// Per-band access, used by shaped links that must skip a band whose
  /// head does not conform to its shaper yet.
  bool band_empty(size_t band) const { return queues_[band].empty(); }
  const net::Packet& peek_band(size_t band) const {
    return queues_[band].front();
  }
  std::optional<net::Packet> dequeue_band(size_t band);

  bool empty() const;
  size_t bands() const { return queues_.size(); }
  /// Materialized from the band's telemetry cells (by value).
  BandStats stats(size_t band) const { return stats_[band].snapshot(); }

 private:
  std::vector<std::deque<net::Packet>> queues_;
  /// deque, not vector: views are pinned (registered collectors hold
  /// their address) and deque never relocates elements.
  std::deque<telemetry::View<BandStats>> stats_;
  uint32_t band_capacity_bytes_;
};

}  // namespace nnn::dataplane
