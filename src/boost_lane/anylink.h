// AnyLink: the cloud-based, proxy-mode slow lane (§5, §4.6).
//
// "Interested readers can access sample code and try a cloud-based
// version of Boost which provides slow (instead of fast) lanes at
// http://anylink.stanford.edu." And §4.6: "cookies can also operate in
// proxy mode, i.e., co-located with a web proxy through which clients
// send their traffic ... AnyLink operates in proxy mode to emulate
// slower links for application developers."
//
// The proxy terminates client traffic, looks up the cookie, and maps
// the flow onto an emulated-link profile (rate + latency). Developers
// use it to test an app against, say, a 2G profile, selected per flow
// with a cookie rather than per host.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "net/packet.h"
#include "util/clock.h"

namespace nnn::boost_lane {

/// An emulated link profile (what the slow lane slows you to).
struct LinkProfile {
  std::string name;      // "2G", "3G", "dsl"
  double rate_bps = 0;
  util::Timestamp extra_latency = 0;
};

class AnyLinkProxy {
 public:
  AnyLinkProxy(const util::Clock& clock, cookies::CookieVerifier& verifier);

  /// Register a profile and the service_data tag selecting it (no-op
  /// once the registry has no service id left to give the tag).
  void add_profile(const std::string& service_data, LinkProfile profile);

  /// Result of pushing one packet through the proxy: the profile to
  /// emulate (nullopt -> unshaped pass-through).
  std::optional<LinkProfile> process(net::Packet& packet);

 private:
  dataplane::ServiceRegistry registry_;
  dataplane::Middlebox middlebox_;
  std::map<dataplane::ServiceId, LinkProfile> profiles_;
};

}  // namespace nnn::boost_lane
