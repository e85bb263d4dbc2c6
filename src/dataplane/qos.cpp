#include "dataplane/qos.h"

#include <algorithm>
#include <string>

namespace nnn::dataplane {

TokenBucket::TokenBucket(double rate_bps, uint32_t burst_bytes,
                         util::Timestamp start)
    : rate_bps_(rate_bps),
      burst_bytes_(burst_bytes),
      tokens_(burst_bytes),
      last_refill_(start) {}

void TokenBucket::refill(util::Timestamp now) {
  if (now <= last_refill_) return;
  const double elapsed_sec =
      static_cast<double>(now - last_refill_) / util::kSecond;
  tokens_ = std::min(burst_bytes_, tokens_ + elapsed_sec * rate_bps_ / 8.0);
  last_refill_ = now;
}

bool TokenBucket::try_consume(uint32_t bytes, util::Timestamp now) {
  refill(now);
  if (tokens_ < bytes) return false;
  tokens_ -= bytes;
  return true;
}

bool TokenBucket::conforms(uint32_t bytes, util::Timestamp now) const {
  TokenBucket copy = *this;
  return copy.try_consume(bytes, now);
}

double TokenBucket::tokens(util::Timestamp now) const {
  TokenBucket copy = *this;
  copy.refill(now);
  return copy.tokens_;
}

PriorityQueueSet::PriorityQueueSet(size_t bands,
                                   uint32_t band_capacity_bytes)
    : queues_(bands), band_capacity_bytes_(band_capacity_bytes) {
  for (size_t band = 0; band < bands; ++band) {
    auto& view = stats_.emplace_back();
    view.register_with(
        telemetry::Registry::global(),
        telemetry::LabelSet{{"band", std::to_string(band)}});
  }
}

bool PriorityQueueSet::enqueue(net::Packet packet, size_t band) {
  band = std::min(band, queues_.size() - 1);
  auto& s = stats_[band];
  if (s.value<&BandStats::bytes>() + packet.size() >
      band_capacity_bytes_) {
    s.cell<&BandStats::dropped>().inc();
    return false;
  }
  s.cell<&BandStats::bytes>().inc(packet.size());
  s.cell<&BandStats::enqueued>().inc();
  queues_[band].push_back(std::move(packet));
  return true;
}

std::optional<net::Packet> PriorityQueueSet::dequeue() {
  for (size_t band = 0; band < queues_.size(); ++band) {
    if (queues_[band].empty()) continue;
    net::Packet packet = std::move(queues_[band].front());
    queues_[band].pop_front();
    auto& s = stats_[band];
    s.cell<&BandStats::bytes>().dec(packet.size());
    s.cell<&BandStats::dequeued>().inc();
    return packet;
  }
  return std::nullopt;
}

std::optional<net::Packet> PriorityQueueSet::dequeue_band(size_t band) {
  if (band >= queues_.size() || queues_[band].empty()) return std::nullopt;
  net::Packet packet = std::move(queues_[band].front());
  queues_[band].pop_front();
  auto& s = stats_[band];
  s.cell<&BandStats::bytes>().dec(packet.size());
  s.cell<&BandStats::dequeued>().inc();
  return packet;
}

bool PriorityQueueSet::empty() const {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const auto& q) { return q.empty(); });
}

}  // namespace nnn::dataplane
