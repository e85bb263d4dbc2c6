// DPI baseline (§3, Fig. 6b) — an nDPI-style classifier.
//
// "DPI sits in a middlebox and typically matches traffic at line-rate,
// by examining IP addresses, TCP ports, SSL's SNI field, and packet
// contents. Typically, a new set of rules is added for each
// application and web-service."
//
// The engine reproduces DPI's structural behaviour and failure modes:
//  - rule catalogs cover only popular applications (high transaction
//    cost: adding a rule is a manual, per-app process);
//  - a rule keys on the provider's own domains/servers, so traffic a
//    page pulls from CDNs, ad networks and third parties is invisible
//    (nDPI marked <10% of cnn.com's packets);
//  - content rules over-match embedded widgets (nDPI attributed 12% of
//    skai.gr's packets to YouTube because of an embedded player).
// Classification is per-flow with a flow cache, like real DPI boxes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/five_tuple.h"
#include "net/packet.h"
#include "telemetry/view.h"

namespace nnn::baselines {

/// One application's signature set. All matchers are OR'd; an empty
/// matcher list never matches.
struct DpiRule {
  std::string app;  // label reported on match, e.g. "youtube"
  /// Match the TLS SNI / HTTP Host against these domain suffixes
  /// ("youtube.com" matches "www.youtube.com").
  std::vector<std::string> host_suffixes;
  /// Server (destination) IPv4 prefixes, value+prefix_len.
  struct IpPrefix {
    uint32_t value = 0;
    int bits = 32;
  };
  std::vector<IpPrefix> server_prefixes;
  /// Server ports.
  std::vector<uint16_t> ports;
  /// Byte substrings searched in the first payload of a flow (how real
  /// DPI fingerprints embedded players and proprietary protocols; also
  /// the source of its false positives).
  std::vector<std::string> payload_substrings;
};

struct DpiStats {
  uint64_t packets = 0;
  uint64_t classified_packets = 0;
  uint64_t flows_classified = 0;

  friend bool operator==(const DpiStats&, const DpiStats&) = default;
};

}  // namespace nnn::baselines

namespace nnn::telemetry {

template <>
struct ViewTraits<baselines::DpiStats> {
  using S = baselines::DpiStats;
  static constexpr std::array fields{
      ViewField<S>{&S::packets, MetricType::kCounter,
                   "nnn_dpi_packets_total", "Packets seen by the DPI engine",
                   "", ""},
      ViewField<S>{&S::classified_packets, MetricType::kCounter,
                   "nnn_dpi_classified_packets_total",
                   "Packets DPI attributed to a known application", "", ""},
      ViewField<S>{&S::flows_classified, MetricType::kCounter,
                   "nnn_dpi_flows_classified_total",
                   "Flows DPI attributed to a known application", "", ""},
  };
};

}  // namespace nnn::telemetry

namespace nnn::baselines {

class DpiEngine {
 public:
  /// Registers the nnn_dpi_* families; pinned (collector holds this).
  DpiEngine();
  DpiEngine(const DpiEngine&) = delete;
  DpiEngine& operator=(const DpiEngine&) = delete;

  void add_rule(DpiRule rule);
  size_t rule_count() const { return rules_.size(); }

  bool knows_app(const std::string& app) const;

  /// Classify one packet. Consults the flow cache first; on a cache
  /// miss inspects SNI/Host/IP/port/payload. Returns the app label or
  /// nullopt (unclassified -> default treatment).
  std::optional<std::string> classify(const net::Packet& packet);

  /// Materialized from the live telemetry cells (by value).
  DpiStats stats() const { return stats_.snapshot(); }
  void reset_flow_cache() { flow_cache_.clear(); }

 private:
  std::optional<std::string> inspect(const net::Packet& packet) const;

  struct FlowCacheEntry {
    std::optional<std::string> app;
    uint32_t packets_inspected = 0;
  };

  /// Real DPI keeps inspecting a flow's first packets before giving up
  /// on it; we re-inspect up to this many packets before caching a
  /// negative verdict.
  static constexpr uint32_t kInspectionWindow = 3;

  std::vector<DpiRule> rules_;
  /// Keyed on Packet::flow_key() — the same key the cookie dataplane
  /// uses, so cookie-vs-DPI comparisons see identical flow boundaries.
  /// For QUIC that key is the UNRESOLVED destination CID: DPI has no
  /// alias table (the rotation linkage is user-to-middlebox state, not
  /// on-wire), so every rotation looks like a brand-new flow to it and
  /// the inspection window restarts against pure ciphertext.
  std::unordered_map<net::FlowKey, FlowCacheEntry> flow_cache_;
  telemetry::View<DpiStats> stats_;
};

/// Extract the hostname DPI would see: TLS SNI for a ClientHello
/// payload, Host header for an HTTP request payload.
std::optional<std::string> visible_host(const net::Packet& packet);

}  // namespace nnn::baselines
