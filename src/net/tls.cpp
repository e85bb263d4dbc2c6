#include "net/tls.h"

#include "util/bytes.h"

namespace nnn::net::tls {

namespace {

using util::ByteReader;
using util::Bytes;
using util::BytesView;
using util::ByteWriter;

constexpr uint8_t kContentHandshake = 22;
constexpr uint8_t kHandshakeClientHello = 1;

}  // namespace

std::optional<std::string> ClientHello::server_name() const {
  for (const auto& ext : extensions) {
    if (ext.type != kExtServerName) continue;
    // server_name_list: u16 list length, then entries of
    // {u8 type=0 (host_name), u16 length, bytes}.
    ByteReader r(BytesView(ext.data));
    auto list_len = r.u16();
    if (!list_len || *list_len > r.remaining()) return std::nullopt;
    auto name_type = r.u8();
    auto name_len = r.u16();
    if (!name_type || *name_type != 0 || !name_len) return std::nullopt;
    auto name = r.view(*name_len);
    if (!name) return std::nullopt;
    return std::string(name->begin(), name->end());
  }
  return std::nullopt;
}

void ClientHello::set_server_name(std::string_view host) {
  Bytes data;
  ByteWriter w(data);
  w.u16(static_cast<uint16_t>(host.size() + 3));
  w.u8(0);  // host_name
  w.u16(static_cast<uint16_t>(host.size()));
  w.raw(host);
  for (auto& ext : extensions) {
    if (ext.type == kExtServerName) {
      ext.data = std::move(data);
      return;
    }
  }
  extensions.push_back(Extension{kExtServerName, std::move(data)});
}

std::optional<util::Bytes> ClientHello::cookie() const {
  for (const auto& ext : extensions) {
    if (ext.type == kExtNetworkCookie) return ext.data;
  }
  return std::nullopt;
}

void ClientHello::set_cookie(util::BytesView cookie) {
  for (auto& ext : extensions) {
    if (ext.type == kExtNetworkCookie) {
      ext.data.assign(cookie.begin(), cookie.end());
      return;
    }
  }
  extensions.push_back(
      Extension{kExtNetworkCookie, Bytes(cookie.begin(), cookie.end())});
}

util::Bytes ClientHello::serialize_record() const {
  // Body of the ClientHello handshake message.
  Bytes body;
  ByteWriter w(body);
  w.u16(legacy_version);
  w.raw(BytesView(random.data(), random.size()));
  w.u8(static_cast<uint8_t>(session_id.size()));
  w.raw(BytesView(session_id));
  w.u16(static_cast<uint16_t>(cipher_suites.size() * 2));
  for (const uint16_t cs : cipher_suites) w.u16(cs);
  w.u8(1);  // compression methods length
  w.u8(0);  // null compression
  Bytes ext_block;
  ByteWriter we(ext_block);
  for (const auto& ext : extensions) {
    we.u16(ext.type);
    we.u16(static_cast<uint16_t>(ext.data.size()));
    we.raw(BytesView(ext.data));
  }
  w.u16(static_cast<uint16_t>(ext_block.size()));
  w.raw(BytesView(ext_block));

  // Handshake header.
  Bytes handshake;
  ByteWriter wh(handshake);
  wh.u8(kHandshakeClientHello);
  wh.u8(static_cast<uint8_t>(body.size() >> 16));
  wh.u16(static_cast<uint16_t>(body.size() & 0xffff));
  wh.raw(BytesView(body));

  // Record header.
  Bytes record;
  ByteWriter wr(record);
  wr.u8(kContentHandshake);
  wr.u16(0x0301);  // record-layer version as sent by real clients
  wr.u16(static_cast<uint16_t>(handshake.size()));
  wr.raw(BytesView(handshake));
  return record;
}

std::optional<ClientHello> ClientHello::parse_record(BytesView record) {
  ByteReader r(record);
  auto content_type = r.u8();
  auto record_version = r.u16();
  auto record_len = r.u16();
  if (!content_type || *content_type != kContentHandshake ||
      !record_version || !record_len || *record_len > r.remaining()) {
    return std::nullopt;
  }
  auto handshake_type = r.u8();
  auto len_hi = r.u8();
  auto len_lo = r.u16();
  if (!handshake_type || *handshake_type != kHandshakeClientHello ||
      !len_hi || !len_lo) {
    return std::nullopt;
  }
  const size_t body_len = static_cast<size_t>(*len_hi) << 16 | *len_lo;
  if (body_len > r.remaining()) return std::nullopt;

  ClientHello hello;
  auto version = r.u16();
  auto random = r.raw(32);
  if (!version || !random) return std::nullopt;
  hello.legacy_version = *version;
  std::copy(random->begin(), random->end(), hello.random.begin());
  auto sid_len = r.u8();
  if (!sid_len) return std::nullopt;
  auto sid = r.raw(*sid_len);
  if (!sid) return std::nullopt;
  hello.session_id = std::move(*sid);
  auto cs_len = r.u16();
  if (!cs_len || *cs_len % 2 != 0 || *cs_len > r.remaining()) {
    return std::nullopt;
  }
  hello.cipher_suites.clear();
  for (size_t i = 0; i < *cs_len / 2; ++i) {
    auto cs = r.u16();
    if (!cs) return std::nullopt;
    hello.cipher_suites.push_back(*cs);
  }
  auto comp_len = r.u8();
  if (!comp_len || !r.skip(*comp_len)) return std::nullopt;
  if (r.remaining() == 0) return hello;  // extensions are optional
  auto ext_len = r.u16();
  if (!ext_len || *ext_len > r.remaining()) return std::nullopt;
  ByteReader er(*r.view(*ext_len));
  while (er.remaining() > 0) {
    auto type = er.u16();
    auto len = er.u16();
    if (!type || !len) return std::nullopt;
    auto data = er.raw(*len);
    if (!data) return std::nullopt;
    hello.extensions.push_back(Extension{*type, std::move(*data)});
  }
  return hello;
}

}  // namespace nnn::net::tls
