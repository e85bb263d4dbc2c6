#include "boost_lane/browser.h"

namespace nnn::boost_lane {

Browser::Browser(util::Rng& rng, net::IpAddress client_ip)
    : rng_(rng), generator_(rng, client_ip) {}

TabId Browser::open_tab() { return next_tab_++; }

TabPageLoad Browser::navigate(TabId tab,
                              const workload::WebsiteProfile& site) {
  TabPageLoad load;
  load.tab = tab;
  load.domain = site.domain;
  workload::PageLoad page = generator_.generate(site);
  load.total_packets = page.total_packets;
  load.flows.reserve(page.flows.size());

  // A slice of the load's packets travels in flows the extension
  // cannot see behind a tab (DNS lookups, prefetch). Peel whole flows
  // off until ~kUnattributableShare of packets is untagged.
  const uint32_t untagged_budget = static_cast<uint32_t>(
      page.total_packets * kUnattributableShare);
  uint32_t untagged = 0;
  // Shuffle so the unattributable flows are not biased to one origin.
  rng_.shuffle(page.flows);
  for (auto& flow : page.flows) {
    BrowserFlow bf;
    const bool can_untag =
        untagged + flow.packets <= untagged_budget;
    if (can_untag) {
      untagged += flow.packets;
      bf.tab = std::nullopt;
      bf.address_bar_domain.clear();
    } else {
      bf.tab = tab;
      bf.address_bar_domain = site.domain;
    }
    bf.flow = std::move(flow);
    load.flows.push_back(std::move(bf));
  }
  return load;
}

}  // namespace nnn::boost_lane
