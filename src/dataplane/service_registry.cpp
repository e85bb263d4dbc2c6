#include "dataplane/service_registry.h"

#include <limits>

#include "util/fmt.h"

namespace nnn::dataplane {

std::string to_string(const ServiceAction& action) {
  if (const auto* p = std::get_if<PriorityAction>(&action)) {
    return util::fmt("priority(band={})", p->band);
  }
  if (std::holds_alternative<ZeroRateAction>(action)) {
    return "zero-rate";
  }
  if (const auto* d = std::get_if<DscpRemarkAction>(&action)) {
    return util::fmt("dscp-remark({})", +d->dscp);
  }
  const auto& r = std::get<RateLimitAction>(action);
  return util::fmt("rate-limit({}bps)", r.rate_bps);
}

Expected<ServiceId> ServiceRegistry::bind(std::string service_data,
                                          ServiceAction action) {
  auto it = ids_.find(service_data);
  if (it == ids_.end()) {
    if (services_.size() > std::numeric_limits<ServiceId>::max()) {
      return unexpected(Error{ErrorDomain::kFlow, ErrorCode::kQuotaExceeded,
                              "service ids exhausted"});
    }
    const auto id = static_cast<ServiceId>(services_.size());
    services_.push_back(Service{service_data, std::nullopt});
    it = ids_.emplace(std::move(service_data), id).first;
  }
  services_[it->second].action = action;
  return it->second;
}

bool ServiceRegistry::unbind(const std::string& service_data) {
  std::optional<ServiceAction>& action = services_[id(service_data)].action;
  if (!action) return false;
  action.reset();
  return true;
}

ServiceId ServiceRegistry::id(std::string_view service_data) const {
  const auto it = ids_.find(service_data);
  return it == ids_.end() ? kNoService : it->second;
}

}  // namespace nnn::dataplane
