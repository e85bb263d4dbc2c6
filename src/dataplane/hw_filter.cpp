#include "dataplane/hw_filter.h"

#include <cstdlib>

namespace nnn::dataplane {

HardwareFilter::HardwareFilter(const util::Clock& clock,
                               util::Timestamp nct, Config config)
    : clock_(clock), nct_(nct), config_(config) {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) {
        decisions_.collect(builder, "nnn_hw_filter_total",
                           "Hardware pre-filter decisions",
                           [](HwDecision d) { return to_string(d); },
                           "decision");
      });
}

void HardwareFilter::learn_id(cookies::CookieId id) {
  ids_.insert(id);
}

HwDecision HardwareFilter::classify(const net::Packet& packet) {
  const auto record = [&](HwDecision d) {
    decisions_.inc(d);
    return d;
  };

  // Stage (i): cookie presence, via the packet model's single carrier
  // search (net::Packet::cookie_bytes). The fixed-offset carriers
  // (IPv6 option, TCP option, UDP shim) are what real match-action
  // hardware parses; the text carriers (TLS/HTTP) are optional.
  const auto raw = packet.cookie_bytes();
  const bool text_carrier =
      raw && (raw->carrier == net::CookieCarrier::kTlsExtension ||
              raw->carrier == net::CookieCarrier::kHttpHeader);
  if (!raw || (text_carrier && !config_.parse_text_carriers)) {
    return record(HwDecision::kFastPath);
  }
  const auto stack = cookies::decode_stack(raw->bytes());
  if (!stack) return record(HwDecision::kFastPath);

  const cookies::Cookie& cookie = stack->front();
  // Stage (ii): id table.
  if (!ids_.contains(cookie.cookie_id)) {
    return record(HwDecision::kRejectUnknownId);
  }
  // Stage (iii): timestamp window in whole seconds, a looser pre-check
  // than the verifier's (which compares `now` at full resolution, so
  // it rejects up to a second sooner); no MAC, so advisory only.
  const int64_t now_sec =
      static_cast<int64_t>(cookies::to_cookie_time(clock_.now()));
  const int64_t delta =
      std::llabs(now_sec - static_cast<int64_t>(cookie.timestamp));
  if (delta > nct_ / util::kSecond) return record(HwDecision::kRejectStale);
  return record(HwDecision::kToSoftware);
}

}  // namespace nnn::dataplane
