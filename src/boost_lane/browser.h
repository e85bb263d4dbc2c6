// Browser model: tabs, address bar, per-tab flow attribution.
//
// §5.1 explains why the browser is the right vantage point: "what is
// simple and meaningful for the user (e.g., a webpage...) can be very
// complex for the network to detect" — the browser knows which tab
// generated each of cnn.com's 255 flows while the network only sees
// flows. This model captures exactly that metadata: each page load is
// tied to a tab, every generated flow remembers its tab and the
// address-bar domain, and a small share of traffic (DNS, prefetch) is
// *not* attributable to a tab — the reason the paper's agent "misses
// DNS requests and traffic prefetched by Chrome" and boosts >90%
// rather than 100% (Fig. 6a).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workload/page_load.h"
#include "workload/websites.h"

namespace nnn::boost_lane {

using TabId = uint32_t;

/// A flow as the browser sees it: the network flow plus the browser
/// context DPI can never recover.
struct BrowserFlow {
  workload::GeneratedFlow flow;
  std::optional<TabId> tab;       // nullopt: DNS/prefetch, no tab
  std::string address_bar_domain; // domain of the owning tab ("" if none)
};

struct TabPageLoad {
  TabId tab = 0;
  std::string domain;
  std::vector<BrowserFlow> flows;
  uint32_t total_packets = 0;
};

class Browser {
 public:
  /// Fraction of a page load's packets carried by flows the extension
  /// cannot attribute to the tab (DNS, speculative prefetch).
  static constexpr double kUnattributableShare = 0.06;

  Browser(util::Rng& rng, net::IpAddress client_ip);

  /// Open a tab (returns its id).
  TabId open_tab();

  /// Navigate `tab` to `site`, producing the page load's flows with
  /// browser attribution.
  TabPageLoad navigate(TabId tab, const workload::WebsiteProfile& site);

 private:
  util::Rng& rng_;
  workload::PageLoadGenerator generator_;
  TabId next_tab_ = 1;
};

}  // namespace nnn::boost_lane
