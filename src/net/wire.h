// Wire codec: Packet <-> real IPv4/IPv6 + TCP/UDP bytes, plus the
// framing layer the descriptor control plane speaks.
//
// The structured Packet model is what dataplane elements process; this
// codec proves the model corresponds to real headers. It implements:
//  - IPv4 header with DSCP/ECN byte and header checksum
//  - IPv6 header, plus an optional hop-by-hop options extension header
//    carrying the network-cookie option (this is the paper's "IPv6
//    extension header" cookie transport)
//  - TCP and UDP headers with the standard pseudo-header checksum
//  - Sync frames: a self-describing {magic, version, type, length}
//    envelope for control-plane messages. The typed payloads
//    (snapshot/delta/heartbeat) live in controlplane/messages.h; this
//    layer only knows bytes, so net/ never depends on cookies/.
// Parsing is defensive: any truncation or checksum mismatch yields a
// typed wire-domain Error, never UB. parse_packet/read_sync_frame are
// the entry points.
#pragma once

#include <optional>

#include "net/packet.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/expected.h"

namespace nnn::net {

/// Serialize to wire bytes. v4/v6 is chosen by p.ipv6; a v4 packet with
/// an l3_cookie is serialized without it (v4 has no cookie slot — the
/// transport matrix in cookies/transport.h enforces this).
util::Bytes serialize(const Packet& p);

/// Parse wire bytes back into a Packet. Validates lengths, the IPv4
/// header checksum and the TCP/UDP checksum over the pseudo-header (a
/// UDP/IPv4 datagram whose checksum field is 0 carries none). The
/// result's wire_size is set to the input size. On
/// failure the Error says which check rejected the bytes (kTruncated,
/// kBadChecksum, kUnknownProtocol, kMalformed) and the failure is
/// tallied into nnn_errors_total{domain="wire",...}.
Expected<Packet> parse_packet(util::BytesView wire);

/// Zero-copy variant: decode into an existing Packet (typically a
/// recycled PacketArena slot), reusing its payload heap capacity
/// across occupants — a warm decode path allocates nothing for
/// payloads that fit the previous occupant's buffer. On success `out`
/// is fully overwritten (same result as parse_packet); on failure it
/// is partially written and must be treated as scrap (callers recycle
/// the slot, which the arena's reset does anyway).
Expected<void> parse_packet_into(util::BytesView wire, Packet& out);

/// Internet checksum (RFC 1071) over `data` with an optional seed.
uint16_t internet_checksum(util::BytesView data, uint32_t seed = 0);

/// "NC" — distinguishes control-plane datagrams from stray traffic.
inline constexpr uint16_t kSyncMagic = 0x4E43;
/// Protocol version; a parser rejects frames from a newer protocol
/// rather than misinterpreting them.
inline constexpr uint8_t kSyncVersion = 1;

/// One control-plane frame: an opaque typed payload. The type byte is
/// assigned by controlplane/messages.h; unknown types are skippable
/// because the envelope carries an explicit payload length.
struct SyncFrame {
  uint8_t type = 0;
  util::BytesView payload;
};

/// Fixed envelope size: u16 magic | u8 version | u8 type | u32 len.
inline constexpr size_t kSyncFrameHeader = 8;

/// Ceiling on the length field a decoder will honor, checked BEFORE
/// any allocation or buffer sizing — a hostile 4 GiB length field must
/// cost the server one rejected frame, not one reserve() call. The
/// default comfortably exceeds the largest legitimate control-plane
/// message (a full descriptor snapshot); netio servers may lower it.
size_t max_sync_frame_payload();
void set_max_sync_frame_payload(size_t bytes);
inline constexpr size_t kDefaultMaxSyncFramePayload = 16u << 20;  // 16 MiB

/// Append one frame: u16 magic | u8 version | u8 type | u32 len | payload.
void append_sync_frame(util::Bytes& out, uint8_t type,
                       util::BytesView payload);

/// Parse the frame at the reader's position. Fails with kBadMagic,
/// kUnsupportedVersion, kMalformed (a length field above
/// max_sync_frame_payload()), or kTruncated (a length that overruns
/// the buffer); the returned payload view aliases the reader's
/// underlying buffer.
Expected<SyncFrame> read_sync_frame(util::ByteReader& r);

/// Stream-reassembly probe: given the bytes buffered so far on a TCP
/// connection, how much more is needed?
///  - nullopt          -> envelope incomplete, keep reading
///  - value            -> total frame size (header + payload); the
///                        first `value` bytes of `stream` hold one
///                        whole frame once stream.size() >= value
///  - Error            -> the stream is poisoned (bad magic/version or
///                        an oversized length); close the connection —
///                        framing cannot resynchronize a byte stream.
/// Validates the envelope as soon as its 8 bytes arrive, so a hostile
/// length is rejected before any payload is buffered.
Expected<std::optional<size_t>> peek_sync_frame(util::BytesView stream);

/// Incremental frame reassembly for a byte stream: feed arbitrary
/// chunks, poll complete frames out. Used by the netio client
/// transport and the chunked-delivery differential tests; server
/// connections run peek_sync_frame directly on their input buffer.
class FrameAssembler {
 public:
  /// Append a chunk. Returns an Error (and poisons the assembler) when
  /// the buffered prefix can never parse; feeding after that fails the
  /// same way. nullopt = accepted.
  std::optional<Error> feed(util::BytesView chunk);

  /// Pop the next complete frame, or nullopt when more bytes are
  /// needed. The frame owns its payload (no aliasing of the internal
  /// buffer, which compacts as frames pop).
  struct Frame {
    uint8_t type = 0;
    util::Bytes payload;
  };
  std::optional<Frame> next();

  bool poisoned() const { return poisoned_.has_value(); }
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  util::Bytes buffer_;
  size_t consumed_ = 0;
  std::optional<Error> poisoned_;
};

}  // namespace nnn::net
