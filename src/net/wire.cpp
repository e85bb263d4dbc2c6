#include "net/wire.h"

#include <algorithm>
#include <atomic>

#include "util/bytes.h"

namespace nnn::net {

namespace {

using util::ByteReader;
using util::Bytes;
using util::BytesView;
using util::ByteWriter;

constexpr uint8_t kHopByHopHeader = 0;

/// Build, tally, and wrap a wire-domain error in one step so every
/// rejection below stays a one-liner and still lands in
/// nnn_errors_total{domain="wire"}.
Unexpected<Error> wire_error(ErrorCode code, std::string_view detail = {}) {
  const Error error{ErrorDomain::kWire, code, detail};
  count_error(error);
  return unexpected(error);
}

uint32_t sum16(BytesView data) {
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<uint32_t>(data[i]) << 8;
  return sum;
}

uint16_t fold(uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum & 0xffff);
}

/// Pseudo-header sum for TCP/UDP checksums.
uint32_t pseudo_sum(const Packet& p, size_t l4_len) {
  uint32_t sum = 0;
  const size_t addr_len = p.ipv6 ? 16 : 4;
  for (size_t i = 0; i + 1 < addr_len; i += 2) {
    sum += static_cast<uint32_t>(p.tuple.src_ip.bytes()[i]) << 8 |
           p.tuple.src_ip.bytes()[i + 1];
    sum += static_cast<uint32_t>(p.tuple.dst_ip.bytes()[i]) << 8 |
           p.tuple.dst_ip.bytes()[i + 1];
  }
  sum += static_cast<uint32_t>(p.tuple.proto);
  sum += static_cast<uint32_t>(l4_len);
  return sum;
}

/// TCP option kinds used by the cookie carrier (experimental kinds,
/// RFC 4727 style). kEdo extends the header beyond the classic 60-byte
/// limit ("TCP long options"); kCookieOption carries the cookie blob.
constexpr uint8_t kTcpOptEol = 0;
constexpr uint8_t kTcpOptNop = 1;
constexpr uint8_t kTcpOptEdo = 253;
constexpr uint8_t kTcpOptCookie = 254;

Bytes build_tcp_options(const Packet& p) {
  Bytes options;
  if (!p.l4_cookie) return options;
  ByteWriter w(options);
  // EDO first: kind, len=4, extended header length (patched below).
  w.u8(kTcpOptEdo);
  w.u8(4);
  w.u16(0);
  // The cookie option.
  w.u8(kTcpOptCookie);
  w.u8(static_cast<uint8_t>(2 + p.l4_cookie->size()));
  w.raw(BytesView(*p.l4_cookie));
  // Pad the header to a 4-byte multiple.
  while ((20 + options.size()) % 4 != 0) w.u8(kTcpOptNop);
  const uint16_t header_len = static_cast<uint16_t>(20 + options.size());
  options[2] = static_cast<uint8_t>(header_len >> 8);
  options[3] = static_cast<uint8_t>(header_len);
  return options;
}

Bytes build_l4(const Packet& p) {
  Bytes out;
  ByteWriter w(out);
  if (p.is_tcp()) {
    const Bytes options = build_tcp_options(p);
    w.u16(p.tuple.src_port);
    w.u16(p.tuple.dst_port);
    w.u32(p.seq);
    w.u32(p.ack_seq);
    // Data offset saturates at 15; with EDO the true header length
    // lives in the option.
    const size_t header_len = 20 + options.size();
    const uint8_t data_offset =
        static_cast<uint8_t>(std::min<size_t>(15, header_len / 4));
    w.u8(static_cast<uint8_t>(data_offset << 4));
    uint8_t flags = 0;
    if (p.fin) flags |= 0x01;
    if (p.syn) flags |= 0x02;
    if (p.rst) flags |= 0x04;
    if (p.ack) flags |= 0x10;
    w.u8(flags);
    w.u16(65535);  // window
    w.u16(0);      // checksum placeholder
    w.u16(0);      // urgent
    w.raw(BytesView(options));
    w.raw(BytesView(p.payload));
    const uint32_t ps = pseudo_sum(p, out.size());
    const uint16_t csum = fold(sum16(BytesView(out)) + ps);
    out[16] = static_cast<uint8_t>(csum >> 8);
    out[17] = static_cast<uint8_t>(csum);
  } else {
    w.u16(p.tuple.src_port);
    w.u16(p.tuple.dst_port);
    w.u16(static_cast<uint16_t>(8 + p.payload.size()));
    w.u16(0);  // checksum placeholder
    w.raw(BytesView(p.payload));
    const uint32_t ps = pseudo_sum(p, out.size());
    uint16_t csum = fold(sum16(BytesView(out)) + ps);
    if (csum == 0) csum = 0xffff;  // UDP: 0 means "no checksum"
    out[6] = static_cast<uint8_t>(csum >> 8);
    out[7] = static_cast<uint8_t>(csum);
  }
  return out;
}

/// Hop-by-hop options header carrying the cookie option, padded to a
/// multiple of 8 bytes with PadN.
Bytes build_hbh(uint8_t next_header, BytesView cookie) {
  Bytes out;
  ByteWriter w(out);
  w.u8(next_header);
  w.u8(0);  // length placeholder (units of 8 bytes, excluding first 8)
  w.u8(kCookieOptionType);
  w.u8(static_cast<uint8_t>(cookie.size()));
  w.raw(cookie);
  // Pad to multiple of 8.
  while (out.size() % 8 != 0) {
    const size_t pad = 8 - out.size() % 8;
    if (pad == 1) {
      w.u8(0);  // Pad1
    } else {
      w.u8(1);  // PadN
      w.u8(static_cast<uint8_t>(pad - 2));
      for (size_t i = 0; i < pad - 2; ++i) w.u8(0);
    }
  }
  out[1] = static_cast<uint8_t>(out.size() / 8 - 1);
  return out;
}

}  // namespace

uint16_t internet_checksum(BytesView data, uint32_t seed) {
  return fold(sum16(data) + seed);
}

namespace {
/// Process-wide so every decode path (reader, peek, assembler) agrees;
/// relaxed is fine — this is a configuration knob set at startup, not
/// a synchronization point.
std::atomic<size_t> g_max_sync_frame_payload{kDefaultMaxSyncFramePayload};
}  // namespace

size_t max_sync_frame_payload() {
  return g_max_sync_frame_payload.load(std::memory_order_relaxed);
}

void set_max_sync_frame_payload(size_t bytes) {
  g_max_sync_frame_payload.store(bytes, std::memory_order_relaxed);
}

void append_sync_frame(util::Bytes& out, uint8_t type, BytesView payload) {
  ByteWriter w(out);
  w.u16(kSyncMagic);
  w.u8(kSyncVersion);
  w.u8(type);
  w.u32(static_cast<uint32_t>(payload.size()));
  w.raw(payload);
}

Expected<SyncFrame> read_sync_frame(ByteReader& r) {
  const auto magic = r.u16();
  const auto version = r.u8();
  const auto type = r.u8();
  const auto len = r.u32();
  if (!magic || !version || !type || !len) {
    return wire_error(ErrorCode::kTruncated, "sync envelope");
  }
  if (*magic != kSyncMagic) return wire_error(ErrorCode::kBadMagic);
  if (*version != kSyncVersion) {
    return wire_error(ErrorCode::kUnsupportedVersion);
  }
  if (*len > max_sync_frame_payload()) {
    return wire_error(ErrorCode::kMalformed, "frame length");
  }
  const auto payload = r.view(*len);
  if (!payload) return wire_error(ErrorCode::kTruncated, "sync payload");
  return SyncFrame{*type, *payload};
}

Expected<std::optional<size_t>> peek_sync_frame(BytesView stream) {
  if (stream.size() < kSyncFrameHeader) return std::optional<size_t>{};
  const uint16_t magic =
      static_cast<uint16_t>(static_cast<uint16_t>(stream[0]) << 8 |
                            stream[1]);
  if (magic != kSyncMagic) return wire_error(ErrorCode::kBadMagic);
  if (stream[2] != kSyncVersion) {
    return wire_error(ErrorCode::kUnsupportedVersion);
  }
  const uint32_t len = static_cast<uint32_t>(stream[4]) << 24 |
                       static_cast<uint32_t>(stream[5]) << 16 |
                       static_cast<uint32_t>(stream[6]) << 8 | stream[7];
  if (len > max_sync_frame_payload()) {
    return wire_error(ErrorCode::kMalformed, "frame length");
  }
  return std::optional<size_t>{kSyncFrameHeader + len};
}

std::optional<Error> FrameAssembler::feed(BytesView chunk) {
  if (poisoned_) return poisoned_;
  util::append(buffer_, chunk);
  // Validate the envelope as soon as it is whole; a hostile length is
  // caught here, before next() would size anything from it.
  const auto probe =
      peek_sync_frame(BytesView(buffer_).subspan(consumed_));
  if (!probe) {
    poisoned_ = probe.error();
    return poisoned_;
  }
  return std::nullopt;
}

std::optional<FrameAssembler::Frame> FrameAssembler::next() {
  if (poisoned_) return std::nullopt;
  const BytesView pending = BytesView(buffer_).subspan(consumed_);
  const auto probe = peek_sync_frame(pending);
  if (!probe) {
    poisoned_ = probe.error();
    return std::nullopt;
  }
  if (!*probe || pending.size() < **probe) return std::nullopt;
  Frame frame;
  frame.type = pending[3];
  frame.payload.assign(pending.begin() + kSyncFrameHeader,
                       pending.begin() + static_cast<ptrdiff_t>(**probe));
  consumed_ += **probe;
  // Compact once the dead prefix dominates, so a long-lived connection
  // doesn't grow its buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return frame;
}

util::Bytes serialize(const Packet& p) {
  const Bytes l4 = build_l4(p);
  Bytes out;
  ByteWriter w(out);
  if (!p.ipv6) {
    // IPv4 header, 20 bytes, no options.
    const size_t total = 20 + l4.size();
    w.u8(0x45);  // version 4, IHL 5
    w.u8(static_cast<uint8_t>(p.dscp << 2));
    w.u16(static_cast<uint16_t>(total));
    w.u16(0);       // identification
    w.u16(0x4000);  // DF
    w.u8(p.ttl);
    w.u8(static_cast<uint8_t>(p.tuple.proto));
    w.u16(0);  // checksum placeholder
    w.raw(BytesView(p.tuple.src_ip.bytes().data(), 4));
    w.raw(BytesView(p.tuple.dst_ip.bytes().data(), 4));
    const uint16_t csum = internet_checksum(BytesView(out));
    out[10] = static_cast<uint8_t>(csum >> 8);
    out[11] = static_cast<uint8_t>(csum);
    util::append(out, BytesView(l4));
    return out;
  }
  // IPv6.
  Bytes hbh;
  if (p.l3_cookie) {
    hbh = build_hbh(static_cast<uint8_t>(p.tuple.proto),
                    BytesView(*p.l3_cookie));
  }
  const uint32_t vtc_flow = 6u << 28 | static_cast<uint32_t>(p.dscp) << 22;
  w.u32(vtc_flow);
  w.u16(static_cast<uint16_t>(hbh.size() + l4.size()));
  w.u8(p.l3_cookie ? kHopByHopHeader : static_cast<uint8_t>(p.tuple.proto));
  w.u8(p.ttl);
  w.raw(BytesView(p.tuple.src_ip.bytes().data(), 16));
  w.raw(BytesView(p.tuple.dst_ip.bytes().data(), 16));
  util::append(out, BytesView(hbh));
  util::append(out, BytesView(l4));
  return out;
}

namespace {

/// True when `segment` (a TCP segment or UDP datagram, header
/// included) sums to zero with its pseudo-header: the check that
/// build_l4's checksum passes.
bool l4_checksum_ok(const Packet& p, BytesView segment) {
  return fold(sum16(segment) + pseudo_sum(p, segment.size())) == 0;
}

/// Parse the TCP segment or UDP datagram that fills `segment` (the IP
/// payload past any extension header) and check its checksum.
Expected<void> parse_l4(Packet& p, BytesView segment) {
  ByteReader r(segment);
  if (p.is_tcp()) {
    auto src_port = r.u16();
    auto dst_port = r.u16();
    auto seq = r.u32();
    auto ack_seq = r.u32();
    auto offset_byte = r.u8();
    auto flags = r.u8();
    if (!r.skip(2)) return wire_error(ErrorCode::kTruncated, "tcp header");
    auto csum = r.u16();
    if (!r.skip(2)) return wire_error(ErrorCode::kTruncated, "tcp header");
    if (!src_port || !dst_port || !seq || !ack_seq || !offset_byte ||
        !flags || !csum) {
      return wire_error(ErrorCode::kTruncated, "tcp header");
    }
    if (!l4_checksum_ok(p, segment)) {
      return wire_error(ErrorCode::kBadChecksum, "tcp");
    }
    const size_t base_header_len =
        static_cast<size_t>(*offset_byte >> 4) * 4;
    if (base_header_len < 20) {
      return wire_error(ErrorCode::kMalformed, "tcp data offset");
    }
    // Walk the options; an EDO option may extend the header past the
    // data offset's 60-byte ceiling.
    size_t options_len = base_header_len - 20;
    size_t consumed = 0;
    while (consumed < options_len) {
      const auto kind = r.u8();
      if (!kind) return wire_error(ErrorCode::kTruncated, "tcp options");
      ++consumed;
      if (*kind == kTcpOptEol) {
        if (!r.skip(options_len - consumed)) {
          return wire_error(ErrorCode::kTruncated, "tcp options");
        }
        consumed = options_len;
        break;
      }
      if (*kind == kTcpOptNop) continue;
      const auto len = r.u8();
      if (!len) return wire_error(ErrorCode::kTruncated, "tcp options");
      if (*len < 2) return wire_error(ErrorCode::kMalformed, "tcp option len");
      ++consumed;
      const size_t body = static_cast<size_t>(*len) - 2;
      if (*kind == kTcpOptEdo && body == 2) {
        const auto extended = r.u16();
        if (!extended) return wire_error(ErrorCode::kTruncated, "tcp edo");
        consumed += 2;
        if (*extended < 20 + consumed || (*extended - 20) % 4 != 0) {
          return wire_error(ErrorCode::kMalformed, "tcp edo");
        }
        options_len = *extended - 20;
      } else if (*kind == kTcpOptCookie) {
        auto blob = r.raw(body);
        if (!blob) return wire_error(ErrorCode::kTruncated, "tcp cookie");
        consumed += body;
        p.l4_cookie = std::move(*blob);
      } else {
        if (!r.skip(body)) {
          return wire_error(ErrorCode::kTruncated, "tcp options");
        }
        consumed += body;
      }
    }
    p.tuple.src_port = *src_port;
    p.tuple.dst_port = *dst_port;
    p.seq = *seq;
    p.ack_seq = *ack_seq;
    p.fin = *flags & 0x01;
    p.syn = *flags & 0x02;
    p.rst = *flags & 0x04;
    p.ack = *flags & 0x10;
    // assign (not operator=) so a recycled packet's payload capacity
    // is reused instead of reallocated.
    const auto payload = r.view(r.remaining());
    p.payload.assign(payload->begin(), payload->end());
    return {};
  }
  auto src_port = r.u16();
  auto dst_port = r.u16();
  auto len = r.u16();
  auto csum = r.u16();
  if (!src_port || !dst_port || !len || !csum) {
    return wire_error(ErrorCode::kTruncated, "udp header");
  }
  if (*len < 8) return wire_error(ErrorCode::kMalformed, "udp length");
  if (static_cast<size_t>(*len - 8) > r.remaining()) {
    return wire_error(ErrorCode::kTruncated, "udp payload");
  }
  // A zero field is an IPv4 datagram sent without a checksum.
  const bool unchecked = *csum == 0 && !p.ipv6;
  if (!unchecked && !l4_checksum_ok(p, segment.subspan(0, *len))) {
    return wire_error(ErrorCode::kBadChecksum, "udp");
  }
  p.tuple.src_port = *src_port;
  p.tuple.dst_port = *dst_port;
  const auto payload = r.view(*len - 8);
  p.payload.assign(payload->begin(), payload->end());
  return {};
}

}  // namespace

Expected<void> parse_packet_into(util::BytesView wire, Packet& out) {
  if (wire.empty()) return wire_error(ErrorCode::kTruncated, "empty");
  ByteReader r(wire);
  // Reset everything a previous occupant may have left, keeping heap
  // capacity (payload cleared, not shrunk).
  Packet& p = out;
  p.tuple = FiveTuple{};
  p.dscp = 0;
  p.ttl = 64;
  p.ipv6 = false;
  p.seq = 0;
  p.ack_seq = 0;
  p.syn = p.ack = p.fin = p.rst = false;
  p.l3_cookie.reset();
  p.l4_cookie.reset();
  p.payload.clear();
  p.wire_size = 0;
  const uint8_t version = static_cast<uint8_t>(wire[0] >> 4);
  if (version == 4) {
    auto vi = r.u8();
    auto tos = r.u8();
    auto total_len = r.u16();
    if (!r.skip(4)) {  // id, flags/frag
      return wire_error(ErrorCode::kTruncated, "ipv4 header");
    }
    auto ttl = r.u8();
    auto proto = r.u8();
    auto csum = r.u16();
    if (!vi || !tos || !total_len || !ttl || !proto || !csum) {
      return wire_error(ErrorCode::kTruncated, "ipv4 header");
    }
    const size_t ihl = static_cast<size_t>(*vi & 0x0f) * 4;
    if (ihl < 20 || *total_len < ihl) {
      return wire_error(ErrorCode::kMalformed, "ipv4 lengths");
    }
    if (*total_len > wire.size()) {
      return wire_error(ErrorCode::kTruncated, "ipv4 total length");
    }
    if (internet_checksum(wire.subspan(0, ihl)) != 0) {
      return wire_error(ErrorCode::kBadChecksum, "ipv4 header");
    }
    auto src = r.raw(4);
    auto dst = r.raw(4);
    if (!src || !dst) return wire_error(ErrorCode::kTruncated, "ipv4 header");
    if (!r.skip(ihl - 20)) {  // v4 options
      return wire_error(ErrorCode::kTruncated, "ipv4 options");
    }
    p.ipv6 = false;
    p.dscp = static_cast<uint8_t>(*tos >> 2);
    p.ttl = *ttl;
    p.tuple.src_ip = IpAddress::v4((*src)[0], (*src)[1], (*src)[2], (*src)[3]);
    p.tuple.dst_ip = IpAddress::v4((*dst)[0], (*dst)[1], (*dst)[2], (*dst)[3]);
    if (*proto == static_cast<uint8_t>(L4Proto::kTcp)) {
      p.tuple.proto = L4Proto::kTcp;
    } else if (*proto == static_cast<uint8_t>(L4Proto::kUdp)) {
      p.tuple.proto = L4Proto::kUdp;
    } else {
      return wire_error(ErrorCode::kUnknownProtocol);
    }
    // Restrict the segment to the IP total length (drop link padding).
    auto parsed = parse_l4(p, wire.subspan(ihl, *total_len - ihl));
    if (parsed) p.wire_size = static_cast<uint32_t>(wire.size());
    return parsed;
  }
  if (version != 6) return wire_error(ErrorCode::kMalformed, "ip version");
  auto vtc_flow = r.u32();
  auto payload_len = r.u16();
  auto next = r.u8();
  auto hops = r.u8();
  auto src = r.raw(16);
  auto dst = r.raw(16);
  if (!vtc_flow || !payload_len || !next || !hops || !src || !dst) {
    return wire_error(ErrorCode::kTruncated, "ipv6 header");
  }
  if (*payload_len > r.remaining()) {
    return wire_error(ErrorCode::kTruncated, "ipv6 payload length");
  }
  p.ipv6 = true;
  p.dscp = static_cast<uint8_t>(*vtc_flow >> 22 & 0x3f);
  p.ttl = *hops;
  std::array<uint8_t, 16> sb;
  std::array<uint8_t, 16> db;
  std::copy(src->begin(), src->end(), sb.begin());
  std::copy(dst->begin(), dst->end(), db.begin());
  p.tuple.src_ip = IpAddress::v6(sb);
  p.tuple.dst_ip = IpAddress::v6(db);

  uint8_t next_header = *next;
  if (next_header == kHopByHopHeader) {
    auto nh = r.u8();
    auto hdr_len = r.u8();
    if (!nh || !hdr_len) return wire_error(ErrorCode::kTruncated, "ipv6 hbh");
    const size_t opts_len = (static_cast<size_t>(*hdr_len) + 1) * 8 - 2;
    auto opts = r.view(opts_len);
    if (!opts) return wire_error(ErrorCode::kTruncated, "ipv6 hbh");
    // Walk TLV options looking for the cookie option.
    ByteReader opt_reader(*opts);
    while (opt_reader.remaining() > 0) {
      auto type = opt_reader.u8();
      if (!type) return wire_error(ErrorCode::kTruncated, "ipv6 hbh option");
      if (*type == 0) continue;  // Pad1
      auto len = opt_reader.u8();
      if (!len) return wire_error(ErrorCode::kTruncated, "ipv6 hbh option");
      if (*type == kCookieOptionType) {
        auto cookie = opt_reader.raw(*len);
        if (!cookie) {
          return wire_error(ErrorCode::kTruncated, "ipv6 cookie option");
        }
        p.l3_cookie = std::move(*cookie);
      } else {
        if (!opt_reader.skip(*len)) {
          return wire_error(ErrorCode::kTruncated, "ipv6 hbh option");
        }
      }
    }
    next_header = *nh;
  }
  if (next_header == static_cast<uint8_t>(L4Proto::kTcp)) {
    p.tuple.proto = L4Proto::kTcp;
  } else if (next_header == static_cast<uint8_t>(L4Proto::kUdp)) {
    p.tuple.proto = L4Proto::kUdp;
  } else {
    return wire_error(ErrorCode::kUnknownProtocol);
  }
  // The segment ends with the IPv6 payload (bytes past it are link
  // padding); a hop-by-hop header that overruns the payload is bogus.
  const size_t payload_end = 40 + *payload_len;
  if (r.position() > payload_end) {
    return wire_error(ErrorCode::kMalformed, "ipv6 payload length");
  }
  auto parsed =
      parse_l4(p, wire.subspan(r.position(), payload_end - r.position()));
  if (parsed) p.wire_size = static_cast<uint32_t>(wire.size());
  return parsed;
}

Expected<Packet> parse_packet(util::BytesView wire) {
  Packet p;
  auto parsed = parse_packet_into(wire, p);
  if (!parsed) return unexpected(parsed.error());
  return p;
}

}  // namespace nnn::net
