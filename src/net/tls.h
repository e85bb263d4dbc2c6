// TLS ClientHello codec with extensions.
//
// For HTTPS the Boost agent carries the cookie "as a custom TLS
// extension (in TLS ClientHello messages)" (§5.1 — the authors patched
// BoringSSL for this). We implement the ClientHello wire format (RFC
// 5246 §7.4.1.2) with the extension block: enough for a middlebox to
// find either the SNI (what DPI matches on) or the network-cookie
// extension (what the cookie middlebox matches on) in the first bytes
// of an HTTPS flow, without implementing the rest of TLS.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace nnn::net::tls {

/// IANA extension numbers we use.
inline constexpr uint16_t kExtServerName = 0x0000;
/// Private-use extension number for network cookies (0xff01 is in the
/// unassigned/private range used by experimental extensions).
inline constexpr uint16_t kExtNetworkCookie = 0xff01;

struct Extension {
  uint16_t type = 0;
  util::Bytes data;
};

struct ClientHello {
  uint16_t legacy_version = 0x0303;  // TLS 1.2
  std::array<uint8_t, 32> random{};
  util::Bytes session_id;
  std::vector<uint16_t> cipher_suites{0x1301, 0x1302, 0xc02f};
  std::vector<Extension> extensions;

  /// SNI convenience accessors.
  std::optional<std::string> server_name() const;
  void set_server_name(std::string_view host);

  /// Network-cookie extension convenience accessors.
  std::optional<util::Bytes> cookie() const;
  void set_cookie(util::BytesView cookie);

  /// Serialize as a full TLS record (ContentType handshake) containing
  /// the ClientHello handshake message.
  util::Bytes serialize_record() const;

  /// Parse a TLS record expected to contain a ClientHello.
  /// nullopt if it is not a well-formed ClientHello record.
  static std::optional<ClientHello> parse_record(util::BytesView record);
};

}  // namespace nnn::net::tls
