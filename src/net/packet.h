// The in-memory packet model.
//
// Every dataplane element (cookie middlebox, DPI engine, OOB switch,
// DiffServ marker, simulator links, NAT) operates on this struct. A
// separate wire codec (net/wire.h) serializes it to real IPv4/IPv6 +
// TCP/UDP bytes; the structured form keeps per-packet processing cheap
// and lets tests inspect fields directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/five_tuple.h"
#include "net/flow_key.h"
#include "util/bytes.h"

namespace nnn::net {

/// IPv6 hop-by-hop option type we allocate for network cookies (from
/// the experimental/private range, 0x1E-prefixed "RFC 4727 style").
inline constexpr uint8_t kCookieOptionType = 0x1e;

/// Magic prefix of the UDP payload shim carrier (SPUD/QUIC-style).
/// Wire format, so it lives with the packet model.
inline constexpr uint8_t kCookieShimMagic[4] = {'N', 'C', 'K', 'U'};

/// The carriers a cookie stack can ride in (§4.2 "where to add the
/// cookie"). One enum for the whole tree: cookie_bytes() reports where
/// it found a stack, cookies::attach writes one, and descriptors name
/// the carriers they accept (cookies::Transport is this type). The
/// values are wire format — the descriptor sync codec sends them as
/// bytes — so they never move; a new carrier takes the next value.
/// They say nothing about search order: cookie_bytes() owns that.
enum class CookieCarrier : uint8_t {
  kHttpHeader = 0,          // base64 X-Network-Cookie request header
  kTlsExtension = 1,        // network-cookie extension in the ClientHello
  kIpv6Extension = 2,       // hop-by-hop option (Packet::l3_cookie)
  kUdpHeader = 3,           // magic-prefixed UDP payload shim
  kTcpOption = 4,           // TCP long option (Packet::l4_cookie, EDO)
  kQuicTransportParam = 5,  // long-header handshake (quic->tp_cookie)
};

/// The raw (binary, already de-base64'd for HTTP) cookie-stack bytes
/// found on a packet, plus which carrier they rode in on. `bytes()`
/// views into the packet for the in-place carriers and into `storage`
/// for the ones that must decode (TLS copies the extension body, HTTP
/// base64-decodes the header) — either way it is only valid while the
/// packet is.
struct RawCookie {
  CookieCarrier carrier = CookieCarrier::kHttpHeader;
  util::BytesView view;
  util::Bytes storage;  // backs `view` for kTlsExtension/kHttpHeader

  util::BytesView bytes() const { return view; }
};

/// QUIC-shaped header model (PR 10). Structured form only — like
/// wire_size, this models what the head-end observes without
/// materializing real QUIC framing. Long headers model the handshake
/// flight (both connection IDs visible, plus the cookie transport
/// parameter — readable by an on-path observer exactly like a real
/// Initial, whose protection keys derive from the client's DCID);
/// short headers expose only the destination CID, everything after it
/// opaque ciphertext.
///
/// `prev_cid` is the cooperative rotation marker: the first short-
/// header packet using a freshly issued CID names the CID it retires,
/// the user-driven analog of QUIC-LB's routable CIDs (a NEW_CONNECTION
/// _ID frame is encrypted, so a middlebox the user WANTS to recognize
/// the flow must be handed the linkage some other way; see DESIGN
/// §5i). DPI gets the same bytes and still fails: linking CIDs does
/// not name the application when every payload is ciphertext.
struct QuicHeader {
  bool long_header = false;
  /// Destination connection ID — what the middlebox keys flow state
  /// on (via quic::CidAliasTable resolution to the canonical CID).
  uint64_t dcid = 0;
  /// Source connection ID; long header only (zero otherwise).
  uint64_t scid = 0;
  /// CID this packet's dcid replaces (first packet after a rotation).
  std::optional<uint64_t> prev_cid;
  /// Encoded cookie stack carried as a handshake transport parameter;
  /// empty = none. Long header only.
  util::Bytes tp_cookie;
};

struct Packet {
  FiveTuple tuple;

  // --- IP header fields ---
  /// DSCP codepoint (6 bits). The DiffServ baseline and the
  /// cookie->DSCP remark mode write this.
  uint8_t dscp = 0;
  uint8_t ttl = 64;
  /// When true the packet serializes as IPv6 and may carry the cookie
  /// hop-by-hop option.
  bool ipv6 = false;

  // --- TCP-ish fields (ignored for UDP) ---
  uint32_t seq = 0;
  uint32_t ack_seq = 0;
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;

  /// Cookie carried as an IPv6 hop-by-hop option, if any.
  /// (HTTP-header and TLS-extension cookies live inside `payload`.)
  std::optional<util::Bytes> l3_cookie;

  /// Cookie carried as a TCP option, if any. A 53-byte cookie exceeds
  /// the classic 40-byte option space, which is exactly why the paper
  /// cites the TCP Extended Data Offset draft ("TCP long options");
  /// the wire codec emits an EDO option extending the header.
  std::optional<util::Bytes> l4_cookie;

  /// QUIC header model when this packet is QUIC-shaped (UDP carrying
  /// an encrypted transport); nullopt for classic packets.
  std::optional<QuicHeader> quic;

  /// Application payload bytes (HTTP text, TLS records, or opaque).
  util::Bytes payload;

  /// Total on-wire size in bytes. Workload generators set this to model
  /// realistic packet sizes without materializing full payloads; when 0,
  /// size() falls back to header estimate + payload.size().
  uint32_t wire_size = 0;

  /// Effective size used by links, counters, and throughput math.
  uint32_t size() const;

  bool is_tcp() const { return tuple.proto == L4Proto::kTcp; }
  bool is_udp() const { return tuple.proto == L4Proto::kUdp; }
  bool is_quic() const { return quic.has_value(); }

  /// The ONE place that knows what a packet's flow is named by: the
  /// destination connection ID for QUIC-shaped packets (the stable
  /// name that survives NAT rebinds and migration), the classic
  /// 5-tuple for everything else. Every structure that keys per-flow
  /// state — dataplane::FlowTable, the DPI flow cache, OOB matching,
  /// the steering fallback in Dataplane::ingest — derives its key
  /// here instead of reaching for `tuple` by hand. The CID key is
  /// returned UNRESOLVED (as carried); alias resolution to the
  /// connection's canonical CID is the flow table's / alias table's
  /// job, because only they know which rotations have been announced.
  FlowKey flow_key() const {
    if (quic) return FlowKey::from_cid(quic->dcid);
    return FlowKey::from_tuple(tuple);
  }

  /// The ONE reader of cookie carriers: checks every carrier, cheapest
  /// first, and returns the raw encoded cookie-stack bytes of the
  /// first one present. Search order (normative; the test
  /// TransportTest.CookieBytesPrecedenceOrder pins it):
  ///   1. kIpv6Extension       — direct field (l3_cookie)
  ///   2. kTcpOption           — direct field (l4_cookie, EDO)
  ///   3. kQuicTransportParam  — direct field (quic->tp_cookie,
  ///                             long-header handshake only)
  ///   4. kUdpHeader           — fixed-offset magic-prefixed payload
  ///   5. kTlsExtension        — TLS ClientHello parse
  ///   6. kHttpHeader          — HTTP parse + base64 decode
  /// Direct fields before fixed-offset scans before payload parses; a
  /// QUIC packet's payload is opaque ciphertext, so carriers 4-6 are
  /// never consulted for it in practice. Middlebox search, the
  /// hardware pre-filter, the RX demux cookie-id peek and
  /// cookies::extract all route through this accessor; its only
  /// counterpart is the writer, cookies::attach.
  std::optional<RawCookie> cookie_bytes() const;

  std::string summary() const;
};

/// Header size estimate used when wire_size is unset.
uint32_t header_overhead(const Packet& p);

}  // namespace nnn::net
