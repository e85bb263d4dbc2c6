// Cookie descriptors (§4.1, Listing 1).
//
// A descriptor is the control-plane object a user acquires from the
// cookie server: a lookup id, a shared HMAC key, opaque service data,
// and optional attributes. From one descriptor the client locally mints
// many one-shot cookies; "a cookie descriptor typically lasts hours or
// days, and is renewed by the user as needed."
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "json/json.h"
#include "net/packet.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnn::cookies {

using CookieId = uint64_t;

/// Granularity of the service mapping established by a cookie (§4.3).
/// By default "a cookie characterizes the flow (5-tuple) that a packet
/// belongs to"; it can be narrowed to the single packet.
enum class Granularity : uint8_t { kFlow = 0, kPacket = 1 };

/// Transports a cookie may be carried over (§4.2 "where to add the
/// cookie"): the packet model's one carrier enum, named for the cookie
/// layer. Used both as an attribute (which carriers the network
/// accepts) and by the transport codec.
using Transport = net::CookieCarrier;

std::string to_string(Transport t);
std::optional<Transport> transport_from_string(std::string_view s);

/// Typed view of the paper's well-known attributes (§4.3), plus a
/// free-form map for service-specific extras. All fields have the
/// paper's defaults.
struct Attributes {
  Granularity granularity = Granularity::kFlow;
  /// Apply the service to the reverse flow too (default matches Boost,
  /// whose daemon "adds this and the reverse flow to the fast lane").
  bool reverse_flow = true;
  /// Descriptor may be shared between endpoints (home-router cache).
  bool shared = false;
  /// Remote server is expected to echo/mint an acknowledgment cookie.
  bool ack_cookie = false;
  /// Network acknowledges receipt of cookies on reverse traffic.
  bool delivery_guarantee = false;
  /// Carriers this descriptor's cookies may use; empty = any.
  std::vector<Transport> transports;
  /// Absolute expiry of the descriptor; nullopt = no expiry.
  std::optional<util::Timestamp> expires_at;
  /// How long a verified cookie's flow mapping lasts before the flow
  /// reverts to best effort; nullopt = for the flow's lifetime. This
  /// is what makes "a short burst of high bandwidth" (§1) and the
  /// one-hour boost expiry (§5.1) service policies rather than client
  /// promises.
  std::optional<util::Timestamp> mapping_ttl;
  /// Free-form extras ("region=us", "ssid=HomeWifi", ...).
  std::map<std::string, std::string> extra;

  bool allows_transport(Transport t) const;

  json::Value to_json() const;
  static std::optional<Attributes> from_json(const json::Value& v);

  friend bool operator==(const Attributes&, const Attributes&) = default;
};

/// Listing 1 of the paper. The key is secret; everything else is
/// control-plane metadata. Value type, cheap to copy (key is 32 bytes).
struct CookieDescriptor {
  /// 64-bit lookup key for the verifier's descriptor table.
  CookieId cookie_id = 0;
  /// Shared HMAC key used to sign cookies.
  util::Bytes key;
  /// Identifies the network service the packet should receive — "just
  /// the name of the service (e.g., 'Boost'), or any other information".
  /// Opaque to the cookie layer (mechanism/policy separation).
  std::string service_data;
  Attributes attributes;

  /// True once the descriptor's expiry (if any) has passed.
  bool expired(util::Timestamp now) const;

  /// JSON form used by the cookie-server API. Includes the key: the
  /// API response is the secret-bearing message. `audit` form strips
  /// the key for public audit records.
  json::Value to_json(bool include_key = true) const;
  static std::optional<CookieDescriptor> from_json(const json::Value& v);

  friend bool operator==(const CookieDescriptor&,
                         const CookieDescriptor&) = default;
};

}  // namespace nnn::cookies
