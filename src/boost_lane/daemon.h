// The Boost daemon on the home AP (§5.2).
//
// "We implement a python-based daemon on the WiFi router which sniffs
// traffic, looks up cookies and enforces the desired QoS service. Our
// daemon sniffs the first 3 incoming packets for each flow; if it
// detects a cookie, it tries to match the cookie against a known
// descriptor and verifies its integrity. If this is successful, it
// adds this and the reverse flow to the fast lane ... To provision the
// path for boosted traffic we i) use the high-bandwidth wireless WMM
// queue, and ii) throttle other traffic to ensure certain capacity for
// boosted traffic through the last-mile connection."
//
// The daemon composes a Middlebox (sniff/verify/map) with the QoS plan
// (band assignment + throttle of the best-effort band) and the
// last-one-wins conflict policy for multiple boosting clients.
#pragma once

#include <optional>
#include <string>

#include "cookies/verifier.h"
#include "dataplane/middlebox.h"
#include "dataplane/service_registry.h"
#include "net/packet.h"
#include "sim/link.h"
#include "util/clock.h"

namespace nnn::boost_lane {

/// Band plan on the AP's links.
inline constexpr size_t kFastLaneBand = 0;
inline constexpr size_t kBestEffortBand = 1;

class BoostDaemon {
 public:
  struct Config {
    /// Estimated WAN capacity (the paper runs "periodic active tests"
    /// to estimate it; here the topology tells us).
    double wan_capacity_bps = 6e6;
    /// Rate the best-effort band is throttled to while a boost is
    /// active (Fig. 5b: 6 Mb/s link, non-boosted throttled to 1 Mb/s).
    double throttle_bps = 1e6;
    /// Honor cookies arriving mid-flow (application-assisted bursts).
    bool mid_flow_cookies = false;
  };

  BoostDaemon(const util::Clock& clock, cookies::CookieVerifier& verifier,
              Config config);

  /// Attach the WAN links whose band shapers this daemon manages.
  /// Either may be null (uplink-only deployments).
  void attach_links(sim::Link* downlink, sim::Link* uplink);

  /// Process a packet crossing the AP. Returns the QoS band it should
  /// travel in. Activates/refreshes the throttle when a boost mapping
  /// is (still) in effect.
  size_t classify(net::Packet& packet);

  /// Recalibrate from a capacity estimate (§5.2: "the actual
  /// throttling rate depends on the capacity of the WAN connection
  /// which we estimate using periodic active tests"). The throttle
  /// keeps the paper's 6:1 capacity:throttle proportion and is
  /// re-applied immediately if currently active.
  void set_capacity(double wan_capacity_bps);

  double wan_capacity_bps() const { return config_.wan_capacity_bps; }
  double throttle_bps() const { return config_.throttle_bps; }

  /// Conflict policy: "To resolve conflicts when multiple clients want
  /// to boost within a household, we have a last one wins policy."
  /// Called when a client acquires a boost; any previous client's
  /// descriptor is revoked from the verifier.
  void boost_granted(const std::string& client,
                     cookies::CookieId descriptor_id);

  const std::string& active_boost_client() const { return active_client_; }
  bool throttle_active() const { return throttle_active_; }
  dataplane::Middlebox& middlebox() { return middlebox_; }

 private:
  void set_throttle(bool active);

  Config config_;
  cookies::CookieVerifier& verifier_;
  dataplane::ServiceRegistry registry_;
  dataplane::Middlebox middlebox_;
  sim::Link* downlink_ = nullptr;
  sim::Link* uplink_ = nullptr;
  std::string active_client_;
  std::optional<cookies::CookieId> active_descriptor_;
  bool throttle_active_ = false;
};

}  // namespace nnn::boost_lane
