#include "cookies/cookie.h"

#include "util/base64.h"

namespace nnn::cookies {

namespace {

using util::ByteReader;
using util::Bytes;
using util::BytesView;
using util::ByteWriter;

constexpr uint8_t kMagic[3] = {'N', 'C', 'K'};
constexpr uint8_t kVersion = 0x01;

void encode_one(ByteWriter& w, const Cookie& c, uint8_t followers) {
  w.raw(BytesView(kMagic, 3));
  w.u8(kVersion);
  w.u64(c.cookie_id);
  w.raw(BytesView(c.uuid.bytes().data(), c.uuid.bytes().size()));
  w.u64(c.timestamp);
  w.raw(BytesView(c.signature.data(), c.signature.size()));
  w.u8(followers);
}

/// Decode one cookie entry; returns the follower count via out-param.
std::optional<Cookie> decode_one(ByteReader& r, uint8_t& followers) {
  auto magic = r.view(3);
  auto version = r.u8();
  if (!magic || !version || !util::equal(*magic, BytesView(kMagic, 3)) ||
      *version != kVersion) {
    return std::nullopt;
  }
  auto id = r.u64();
  auto uuid_bytes = r.view(crypto::Uuid::kSize);
  auto timestamp = r.u64();
  auto tag = r.view(crypto::kCookieTagSize);
  auto follower_count = r.u8();
  if (!id || !uuid_bytes || !timestamp || !tag || !follower_count) {
    return std::nullopt;
  }
  Cookie c;
  c.cookie_id = *id;
  std::array<uint8_t, crypto::Uuid::kSize> ub;
  std::copy(uuid_bytes->begin(), uuid_bytes->end(), ub.begin());
  c.uuid = crypto::Uuid(ub);
  c.timestamp = *timestamp;
  std::copy(tag->begin(), tag->end(), c.signature.begin());
  followers = *follower_count;
  return c;
}

}  // namespace

CookieTime to_cookie_time(util::Timestamp t) {
  return static_cast<CookieTime>(t / util::kSecond);
}

util::Bytes Cookie::signed_value() const {
  const SignedValue fixed = signed_value_fixed();
  return Bytes(fixed.begin(), fixed.end());
}

Cookie::SignedValue Cookie::signed_value_fixed() const {
  SignedValue out;
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(cookie_id >> (56 - 8 * i));
  }
  std::memcpy(out.data() + 8, uuid.bytes().data(), crypto::Uuid::kSize);
  for (int i = 0; i < 8; ++i) {
    out[8 + crypto::Uuid::kSize + i] =
        static_cast<uint8_t>(timestamp >> (56 - 8 * i));
  }
  return out;
}

crypto::CookieTag Cookie::compute_tag(util::BytesView key) const {
  const SignedValue value = signed_value_fixed();
  return crypto::cookie_tag(key, BytesView(value.data(), value.size()));
}

crypto::CookieTag Cookie::compute_tag(
    const crypto::HmacKeySchedule& schedule) const {
  const SignedValue value = signed_value_fixed();
  return schedule.tag(BytesView(value.data(), value.size()));
}

util::Bytes Cookie::encode() const {
  Bytes out;
  out.reserve(kCookieWireSize);
  ByteWriter w(out);
  encode_one(w, *this, 0);
  return out;
}

std::string Cookie::encode_text() const {
  return util::base64_encode(BytesView(encode()));
}

std::optional<Cookie> Cookie::decode(util::BytesView wire) {
  ByteReader r(wire);
  uint8_t followers = 0;
  auto c = decode_one(r, followers);
  if (!c || followers != 0 || !r.done()) return std::nullopt;
  return c;
}

std::optional<Cookie> Cookie::decode_text(std::string_view text) {
  const auto bytes = util::base64_decode(text);
  if (!bytes) return std::nullopt;
  return decode(BytesView(*bytes));
}

std::optional<CookieId> peek_cookie_id(util::BytesView wire) {
  ByteReader r(wire);
  const auto magic = r.view(3);
  const auto version = r.u8();
  if (!magic || !version || !util::equal(*magic, BytesView(kMagic, 3)) ||
      *version != kVersion) {
    return std::nullopt;
  }
  return r.u64();
}

util::Bytes encode_stack(const std::vector<Cookie>& cookies) {
  Bytes out;
  out.reserve(kCookieWireSize * cookies.size());
  ByteWriter w(out);
  for (size_t i = 0; i < cookies.size(); ++i) {
    const uint8_t followers =
        i == 0 ? static_cast<uint8_t>(cookies.size() - 1) : 0;
    encode_one(w, cookies[i], followers);
  }
  return out;
}

std::optional<std::vector<Cookie>> decode_stack(util::BytesView wire) {
  ByteReader r(wire);
  uint8_t followers = 0;
  auto first = decode_one(r, followers);
  if (!first) return std::nullopt;
  std::vector<Cookie> out;
  out.push_back(std::move(*first));
  for (uint8_t i = 0; i < followers; ++i) {
    uint8_t nested = 0;
    auto next = decode_one(r, nested);
    if (!next || nested != 0) return std::nullopt;
    out.push_back(std::move(*next));
  }
  if (!r.done()) return std::nullopt;
  return out;
}

std::string encode_stack_text(const std::vector<Cookie>& cookies) {
  return util::base64_encode(BytesView(encode_stack(cookies)));
}

}  // namespace nnn::cookies
