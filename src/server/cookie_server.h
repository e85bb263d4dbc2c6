// The well-known cookie server (§4.2 component 2).
//
// "The network advertises the special services it is offering on a
// well-known server ... The user picks a cookie descriptor from the
// well-known server — the user might buy it, or be entitled to a
// certain number per month, via coupons, or on whatever terms the
// network owner decides."
//
// This class is the issuing authority: it owns the service catalog,
// authenticates users (token auth; a home AP may allow anonymous
// acquisition, a cellular network requires login — both are modeled as
// AuthPolicy), enforces per-account quotas, issues descriptors with
// fresh keys, supports revocation, and writes every grant to the audit
// log (§6: regulators "can efficiently audit if involved parties play
// fairly ... maintain a public database with the dates for all cookie
// descriptor requests").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "cookies/descriptor.h"
#include "server/audit.h"
#include "telemetry/labels.h"
#include "telemetry/view.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/rng.h"

namespace nnn::fault {
class Injector;
}

namespace nnn::server {

/// Who may acquire descriptors for a service.
enum class AuthPolicy : uint8_t {
  /// "In a home network anyone who can talk to the AP might get a
  /// cookie" — no credentials required.
  kOpen = 0,
  /// "A cellular network might require users to login first."
  kToken = 1,
};

/// A service the network advertises ("it may advertise that it has
/// cookies available to boost any website, or only cookies to boost
/// Amazon Prime video").
struct ServiceOffer {
  std::string name;           // e.g. "Boost"
  std::string description;    // human text shown by user agents
  std::string service_data;   // opaque tag descriptors will carry
  AuthPolicy auth = AuthPolicy::kOpen;
  /// Descriptor lifetime from grant; 0 = no expiry.
  util::Timestamp descriptor_lifetime = 0;
  /// Per-account grants per month; 0 = unlimited.
  uint32_t monthly_quota = 0;
  /// Attribute template stamped onto issued descriptors (expiry is
  /// filled in from descriptor_lifetime).
  cookies::Attributes attributes;
};

struct Account {
  std::string user;
  std::string token;  // bearer credential for AuthPolicy::kToken
};

enum class AcquireError : uint8_t {
  kUnknownService,
  kAuthRequired,
  kBadCredentials,
  kQuotaExceeded,
  /// The issuing service is refusing requests outright (outage or
  /// injected fault); callers should back off and retry. Existing
  /// grants keep verifying — unavailability of the acquire path never
  /// fails closed on the dataplane.
  kUnavailable,
};
// to_string(AcquireError) lives in telemetry/labels.h so the exporter
// and the server share one spelling of each label value.

/// AcquireError viewed through the unified error taxonomy (PR 5).
constexpr Error to_error(AcquireError e) {
  switch (e) {
    case AcquireError::kUnknownService:
      return Error{ErrorDomain::kServer, ErrorCode::kUnknownId, "service"};
    case AcquireError::kAuthRequired:
      return Error{ErrorDomain::kServer, ErrorCode::kAuthRequired};
    case AcquireError::kBadCredentials:
      return Error{ErrorDomain::kServer, ErrorCode::kBadCredentials};
    case AcquireError::kQuotaExceeded:
      return Error{ErrorDomain::kServer, ErrorCode::kQuotaExceeded};
    case AcquireError::kUnavailable:
      return Error{ErrorDomain::kServer, ErrorCode::kUnavailable};
  }
  return Error{ErrorDomain::kServer, ErrorCode::kUnavailable};
}

struct AcquireResult {
  std::optional<cookies::CookieDescriptor> descriptor;
  std::optional<AcquireError> error;

  bool ok() const { return descriptor.has_value(); }
};

class CookieServer {
 public:
  /// The clock must outlive the server. `log`, when given, is the
  /// distribution channel to the dataplane: every grant, revocation,
  /// and expiry is appended there and reaches the verifiers through
  /// the sync machinery (controlplane::SyncClient over a wire, or
  /// controlplane::LocalSubscriber in-process) — the server never
  /// touches a verifier directly. May be null for a pure
  /// catalog/audit server.
  ///
  /// Registers the control-plane families (nnn_server_grants_total,
  /// nnn_server_revocations_total, nnn_server_denied_total{reason=});
  /// pinned — the collector holds `this`.
  CookieServer(const util::Clock& clock, uint64_t rng_seed,
               controlplane::DescriptorLog* log = nullptr);
  CookieServer(const CookieServer&) = delete;
  CookieServer& operator=(const CookieServer&) = delete;

  // --- service catalog ---
  void add_service(ServiceOffer offer);
  const ServiceOffer* find_service(const std::string& name) const;
  std::vector<ServiceOffer> advertised_services() const;

  // --- accounts ---
  void add_account(Account account);

  /// Acquire a descriptor for `service`. `user` identifies the
  /// requester for quota/audit purposes; `token` is checked when the
  /// service requires auth.
  AcquireResult acquire(const std::string& service, const std::string& user,
                        const std::string& token = "");

  /// Hook the issuing path into a fault injector (PR 5): during an
  /// injected outage acquire() answers kUnavailable (counted and
  /// audited like every other denial). Null detaches; the injector
  /// must outlive the server.
  void set_fault_injector(const fault::Injector* injector) {
    injector_ = injector;
  }

  /// Revoke a previously issued descriptor (§4.5: both parties can
  /// revoke; the user path is "ask the network to invalidate a
  /// descriptor"). Appends to the descriptor log; the revocation
  /// reaches enforcement points as a sync delta.
  bool revoke(cookies::CookieId id, const std::string& reason);

  /// All ids ever issued to `user` that are still active.
  std::vector<cookies::CookieId> active_descriptors(
      const std::string& user) const;

  /// Number of grants `user` consumed in the current (30-day) window
  /// for `service`.
  uint32_t quota_used(const std::string& service,
                      const std::string& user) const;

  const AuditLog& audit_log() const { return audit_; }

 private:
  struct Grant {
    cookies::CookieId id;
    std::string service;
    std::string user;
    util::Timestamp granted_at;
    bool revoked = false;
  };

  util::Bytes fresh_key();
  cookies::CookieId fresh_id();

  const util::Clock& clock_;
  util::Rng rng_;
  controlplane::DescriptorLog* log_;
  const fault::Injector* injector_ = nullptr;
  std::map<std::string, ServiceOffer> services_;
  std::unordered_map<std::string, Account> accounts_;  // keyed by user
  std::vector<Grant> grants_;
  /// Grants indexed by id (position in grants_) so revoke() and
  /// fresh_id() are O(1) instead of scanning every grant ever made.
  std::unordered_map<cookies::CookieId, size_t> grant_index_;
  AuditLog audit_;
  telemetry::Counter granted_;
  telemetry::Counter revoked_;
  telemetry::StatusCounters<AcquireError, kAcquireErrorCount> denied_;
  telemetry::Registration registration_;  // last: released first
};

}  // namespace nnn::server
