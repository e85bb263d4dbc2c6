#include "server/cookie_server.h"

#include <algorithm>

#include "fault/injector.h"

namespace nnn::server {

namespace {

/// Quota accounting window ("entitled to a certain number per month").
constexpr util::Timestamp kQuotaWindow =
    30LL * 24 * 3600 * util::kSecond;

}  // namespace

CookieServer::CookieServer(const util::Clock& clock, uint64_t rng_seed,
                           controlplane::DescriptorLog* log)
    : clock_(clock), rng_(rng_seed), log_(log) {
  registration_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleBuilder& builder) {
        builder.counter("nnn_server_grants_total",
                        "Cookie descriptors granted", {}, granted_.value());
        builder.counter("nnn_server_revocations_total",
                        "Cookie descriptors revoked", {}, revoked_.value());
        denied_.collect(builder, "nnn_server_denied_total",
                        "Acquisition requests denied, by reason",
                        [](AcquireError e) { return to_string(e); },
                        "reason");
      });
}

void CookieServer::add_service(ServiceOffer offer) {
  services_[offer.name] = std::move(offer);
}

const ServiceOffer* CookieServer::find_service(const std::string& name) const {
  const auto it = services_.find(name);
  return it == services_.end() ? nullptr : &it->second;
}

std::vector<ServiceOffer> CookieServer::advertised_services() const {
  std::vector<ServiceOffer> out;
  out.reserve(services_.size());
  for (const auto& [name, offer] : services_) out.push_back(offer);
  return out;
}

void CookieServer::add_account(Account account) {
  accounts_[account.user] = std::move(account);
}

util::Bytes CookieServer::fresh_key() {
  util::Bytes key(32);
  for (size_t i = 0; i < key.size(); i += 8) {
    const uint64_t v = rng_.next_u64();
    for (size_t j = 0; j < 8 && i + j < key.size(); ++j) {
      key[i + j] = static_cast<uint8_t>(v >> (8 * j));
    }
  }
  return key;
}

cookies::CookieId CookieServer::fresh_id() {
  // Ids must be unique across the server's lifetime; collisions in a
  // 64-bit random draw are negligible but we still re-draw defensively.
  while (true) {
    const cookies::CookieId id = rng_.next_u64();
    if (id == 0) continue;
    if (!grant_index_.contains(id)) return id;
  }
}

AcquireResult CookieServer::acquire(const std::string& service,
                                    const std::string& user,
                                    const std::string& token) {
  const util::Timestamp now = clock_.now();
  const auto deny = [&](AcquireError error) {
    denied_.inc(error);
    count_error(to_error(error));  // -> nnn_errors_total{domain,code}
    audit_.append(AuditRecord{now, AuditEvent::kDenied, service, user, 0,
                              std::string(to_string(error))});
    return AcquireResult{std::nullopt, error};
  };

  // Injected outage: the issuing service refuses outright. Fail-open
  // by design — existing grants keep verifying on the dataplane.
  if (injector_ != nullptr && injector_->acquire_unavailable(now)) {
    return deny(AcquireError::kUnavailable);
  }

  const ServiceOffer* offer = find_service(service);
  if (!offer) return deny(AcquireError::kUnknownService);

  if (offer->auth == AuthPolicy::kToken) {
    const auto it = accounts_.find(user);
    if (it == accounts_.end()) return deny(AcquireError::kAuthRequired);
    if (it->second.token != token) {
      return deny(AcquireError::kBadCredentials);
    }
  }

  if (offer->monthly_quota > 0 &&
      quota_used(service, user) >= offer->monthly_quota) {
    return deny(AcquireError::kQuotaExceeded);
  }

  cookies::CookieDescriptor descriptor;
  descriptor.cookie_id = fresh_id();
  descriptor.key = fresh_key();
  descriptor.service_data = offer->service_data;
  descriptor.attributes = offer->attributes;
  if (offer->descriptor_lifetime > 0) {
    descriptor.attributes.expires_at = now + offer->descriptor_lifetime;
  }

  grant_index_.emplace(descriptor.cookie_id, grants_.size());
  grants_.push_back(Grant{descriptor.cookie_id, service, user, now, false});
  granted_.inc();
  audit_.append(AuditRecord{now, AuditEvent::kGranted, service, user,
                            descriptor.cookie_id, ""});
  if (log_) {
    log_->append_add(descriptor);
    // Piggyback expiry propagation on the issue path: descriptors past
    // their lifetime become kRemove updates in the same log.
    log_->expire_due(now);
  }
  return AcquireResult{std::move(descriptor), std::nullopt};
}

bool CookieServer::revoke(cookies::CookieId id, const std::string& reason) {
  const auto it = grant_index_.find(id);
  if (it == grant_index_.end()) return false;
  Grant& grant = grants_[it->second];
  if (grant.revoked) return false;
  grant.revoked = true;
  revoked_.inc();
  audit_.append(AuditRecord{clock_.now(), AuditEvent::kRevoked,
                            grant.service, grant.user, id, reason});
  if (log_) log_->append_revoke(id);
  return true;
}

std::vector<cookies::CookieId> CookieServer::active_descriptors(
    const std::string& user) const {
  std::vector<cookies::CookieId> out;
  for (const auto& grant : grants_) {
    if (grant.user == user && !grant.revoked) out.push_back(grant.id);
  }
  return out;
}

uint32_t CookieServer::quota_used(const std::string& service,
                                  const std::string& user) const {
  const util::Timestamp cutoff = clock_.now() - kQuotaWindow;
  uint32_t used = 0;
  for (const auto& grant : grants_) {
    if (grant.service == service && grant.user == user &&
        grant.granted_at >= cutoff) {
      ++used;
    }
  }
  return used;
}

}  // namespace nnn::server
