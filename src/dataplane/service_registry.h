// Service registry: the policy side of the mechanism/policy split.
//
// A verified cookie yields opaque service_data; this registry is where
// a deployment decides what that means — "sends the packet through a
// high-priority queue. Alternatively it can mark the DSCP bits to
// enforce the service elsewhere in the network" (§4.2), or zero-rate
// the flow's bytes (§4.6). The cookie layer never sees these types.
//
// ## Service ids
//
// bind() gives each name a dense 2-byte ServiceId the first time it
// sees it; flow state and verdicts carry the id, not the name. The
// middlebox resolves a verified cookie's service_data to its id once
// (id(), the one map search) and every later packet of the flow reads
// its action by id (action(), an array index). Rebinding and unbind()
// keep a name's id, and the registry is written only while the plane
// is quiescent, so a rebind reaches flows that are already mapped. A
// name nobody bound resolves to kNoService: its flows still map, with
// no action. Ids are never reused; once all 65,535 are taken, bind()
// refuses a new name.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.h"
#include "util/expected.h"

namespace nnn::dataplane {

/// Dense registry id of a service name; kNoService = none.
using ServiceId = uint16_t;
inline constexpr ServiceId kNoService = 0;

/// Send matching traffic through priority band N (0 = highest).
struct PriorityAction {
  size_t band = 0;
  friend bool operator==(const PriorityAction&,
                         const PriorityAction&) = default;
};

/// Account matching bytes to the free (uncharged) counter.
struct ZeroRateAction {
  friend bool operator==(const ZeroRateAction&,
                         const ZeroRateAction&) = default;
};

/// Remark DSCP and let an internal DiffServ domain enforce
/// ("Cookie->DSCP mapping", §4.6).
struct DscpRemarkAction {
  uint8_t dscp = 0;
  friend bool operator==(const DscpRemarkAction&,
                         const DscpRemarkAction&) = default;
};

/// Police matching traffic to a rate (slow lane — AnyLink, §5).
struct RateLimitAction {
  double rate_bps = 0;
  uint32_t burst_bytes = 0;
  friend bool operator==(const RateLimitAction&,
                         const RateLimitAction&) = default;
};

using ServiceAction = std::variant<PriorityAction, ZeroRateAction,
                                   DscpRemarkAction, RateLimitAction>;

std::string to_string(const ServiceAction& action);

class ServiceRegistry {
 public:
  /// Bind a service_data tag to an action and return its id, assigned
  /// on the tag's first bind. Re-binding replaces the action and keeps
  /// the id. A new tag once every id is taken: kQuotaExceeded.
  Expected<ServiceId> bind(std::string service_data, ServiceAction action);
  /// Drop the tag's action; its id stays. False when none was bound.
  bool unbind(const std::string& service_data);

  /// The id of `service_data`; kNoService for a tag never bound.
  ServiceId id(std::string_view service_data) const;
  /// The action bound to `id`; nullopt for kNoService or an unbound id.
  const std::optional<ServiceAction>& action(ServiceId id) const {
    return services_[id].action;
  }
  /// The tag `id` names ("" for kNoService).
  const std::string& name(ServiceId id) const { return services_[id].name; }

  /// Look up the action for a verified cookie's service_data.
  std::optional<ServiceAction> lookup(std::string_view service_data) const {
    return action(id(service_data));
  }

 private:
  struct Service {
    std::string name;
    std::optional<ServiceAction> action;
  };

  std::map<std::string, ServiceId, std::less<>> ids_;
  /// By id; [kNoService] is the empty service.
  std::vector<Service> services_ = std::vector<Service>(1);
};

}  // namespace nnn::dataplane
