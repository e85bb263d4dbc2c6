// Cookies (§4.1, Listing 2) and their wire form.
//
// A cookie is {cookie_id, uuid, timestamp, signature}. The signature
// is HMAC-SHA256(descriptor.key, id || uuid || timestamp), truncated
// to 128 bits — exactly Listing 3's
//   value = descriptor.id + uuid() + now(); digest = hmac(key, value).
//
// Wire form (big-endian, 53 bytes):
//   magic   "NCK" + version 0x01            4 bytes
//   cookie_id                               8 bytes
//   uuid                                   16 bytes
//   timestamp (seconds)                     8 bytes
//   hmac tag                               16 bytes
//   attachment count                        1 byte (composition, §4.5)
// Composed cookie stacks concatenate entries after the first; the
// count byte on the first entry says how many follow.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cookies/descriptor.h"
#include "crypto/hmac.h"
#include "crypto/uuid.h"
#include "util/bytes.h"
#include "util/clock.h"

namespace nnn::cookies {

/// Seconds-resolution timestamp carried inside cookies. The NCT check
/// compares the whole second it names with the verifier's clock at
/// full resolution (NCT is 5 seconds).
using CookieTime = uint64_t;

CookieTime to_cookie_time(util::Timestamp t);

struct Cookie {
  CookieId cookie_id = 0;
  crypto::Uuid uuid;
  CookieTime timestamp = 0;
  crypto::CookieTag signature{};

  /// Size of the signed byte string: id (8) || uuid (16) || ts (8).
  static constexpr size_t kSignedValueSize = 8 + crypto::Uuid::kSize + 8;
  using SignedValue = std::array<uint8_t, kSignedValueSize>;

  /// The byte string that is HMAC'd: id || uuid || timestamp.
  util::Bytes signed_value() const;

  /// Allocation-free form of signed_value() for the verify hot path.
  SignedValue signed_value_fixed() const;

  /// Compute the correct tag for this cookie under `key`.
  crypto::CookieTag compute_tag(util::BytesView key) const;

  /// Hot-path form: tag under a precomputed HMAC key schedule.
  crypto::CookieTag compute_tag(const crypto::HmacKeySchedule& schedule) const;

  /// Binary wire form of this single cookie (no stack followers).
  util::Bytes encode() const;

  /// Base64 text form, used over HTTP and TLS (§5.1).
  std::string encode_text() const;

  static std::optional<Cookie> decode(util::BytesView wire);
  static std::optional<Cookie> decode_text(std::string_view text);

  friend bool operator==(const Cookie&, const Cookie&) = default;
};

/// Composition (§4.5: "users can combine multiple services ... by
/// composing multiple cookies together"). A stack is one blob carrying
/// several cookies; each network matches the ones it knows.
util::Bytes encode_stack(const std::vector<Cookie>& cookies);
std::optional<std::vector<Cookie>> decode_stack(util::BytesView wire);

/// Cheap no-HMAC, no-copy peek at the leading cookie id of an encoded
/// stack — the RX demux steering key and the hardware pre-filter's
/// id-table lookup. Validates only magic + version + length; a packet
/// that peeks must still go through decode_stack + verify before any
/// service mapping.
std::optional<CookieId> peek_cookie_id(util::BytesView wire);
std::string encode_stack_text(const std::vector<Cookie>& cookies);
std::optional<std::vector<Cookie>> decode_stack_text(std::string_view text);

/// Size in bytes of one encoded cookie.
inline constexpr size_t kCookieWireSize = 4 + 8 + 16 + 8 + 16 + 1;

}  // namespace nnn::cookies
