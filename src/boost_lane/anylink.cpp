#include "boost_lane/anylink.h"

namespace nnn::boost_lane {

AnyLinkProxy::AnyLinkProxy(const util::Clock& clock,
                           cookies::CookieVerifier& verifier)
    : middlebox_(clock, verifier, registry_) {}

void AnyLinkProxy::add_profile(const std::string& service_data,
                               LinkProfile profile) {
  const auto id = registry_.bind(
      service_data, dataplane::RateLimitAction{profile.rate_bps, 0});
  if (id) profiles_[*id] = std::move(profile);
}

std::optional<LinkProfile> AnyLinkProxy::process(net::Packet& packet) {
  const dataplane::Verdict verdict = middlebox_.process(packet);
  const auto it = profiles_.find(verdict.service);
  if (it == profiles_.end()) return std::nullopt;
  return it->second;
}

}  // namespace nnn::boost_lane
