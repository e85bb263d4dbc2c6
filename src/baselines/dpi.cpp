#include "baselines/dpi.h"

#include <algorithm>

#include "net/http.h"
#include "net/tls.h"
#include "util/strings.h"

namespace nnn::baselines {

namespace {

bool prefix_matches(const DpiRule::IpPrefix& prefix,
                    const net::IpAddress& addr) {
  if (!addr.is_v4()) return false;
  if (prefix.bits <= 0) return true;
  const uint32_t mask =
      prefix.bits >= 32 ? 0xffffffffu : ~((1u << (32 - prefix.bits)) - 1);
  return (addr.v4_value() & mask) == (prefix.value & mask);
}

}  // namespace

DpiEngine::DpiEngine() {
  stats_.register_with(telemetry::Registry::global());
}

std::optional<std::string> visible_host(const net::Packet& packet) {
  if (packet.payload.empty()) return std::nullopt;
  if (const auto hello = net::tls::ClientHello::parse_record(
          util::BytesView(packet.payload))) {
    return hello->server_name();
  }
  const std::string text(packet.payload.begin(), packet.payload.end());
  if (const auto request = net::http::Request::parse(text)) {
    const std::string host = request->host();
    if (!host.empty()) return host;
  }
  return std::nullopt;
}

void DpiEngine::add_rule(DpiRule rule) {
  rules_.push_back(std::move(rule));
}

bool DpiEngine::knows_app(const std::string& app) const {
  return std::any_of(rules_.begin(), rules_.end(),
                     [&](const DpiRule& r) { return r.app == app; });
}

std::optional<std::string> DpiEngine::inspect(
    const net::Packet& packet) const {
  const auto host = visible_host(packet);
  const std::string payload_text(packet.payload.begin(),
                                 packet.payload.end());
  for (const auto& rule : rules_) {
    if (host) {
      for (const auto& suffix : rule.host_suffixes) {
        if (util::domain_matches(*host, suffix)) return rule.app;
      }
    }
    for (const auto& prefix : rule.server_prefixes) {
      if (prefix_matches(prefix, packet.tuple.dst_ip)) return rule.app;
    }
    for (const uint16_t port : rule.ports) {
      if (packet.tuple.dst_port == port) return rule.app;
    }
    if (!payload_text.empty()) {
      for (const auto& needle : rule.payload_substrings) {
        if (payload_text.find(needle) != std::string::npos) return rule.app;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> DpiEngine::classify(const net::Packet& packet) {
  stats_.cell<&DpiStats::packets>().inc();
  FlowCacheEntry& entry = flow_cache_[packet.flow_key()];
  if (entry.app) {
    stats_.cell<&DpiStats::classified_packets>().inc();
    return entry.app;
  }
  if (entry.packets_inspected >= kInspectionWindow) {
    return std::nullopt;  // gave up on this flow
  }
  ++entry.packets_inspected;
  auto result = inspect(packet);
  if (result) {
    entry.app = result;
    stats_.cell<&DpiStats::classified_packets>().inc();
    stats_.cell<&DpiStats::flows_classified>().inc();
  }
  return result;
}

}  // namespace nnn::baselines
