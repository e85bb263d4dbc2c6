// Typed control-plane messages: the snapshot/delta sync vocabulary.
//
// The cookie server and its middleboxes are separate entities (§4.1:
// "the network side learned it when issuing" is really a distribution
// problem), so descriptor state crosses a real wire. Four message
// types cover the protocol:
//
//   SyncRequest  client -> server   "I am <client> at version V"
//   Heartbeat    server -> client   "V is current, nothing changed"
//   Delta        server -> client   ordered updates (V, V']
//   Snapshot     server -> client   the full table at version V'
//
// Each message rides in one net::SyncFrame (see net/wire.h); the frame
// envelope carries the type byte and payload length, so a decoder can
// skip message types it does not know — newer servers can speak to
// older middleboxes. Decoding is defensive in the repo's wire idiom:
// truncation or a malformed known payload yields a typed Error
// (domain kMessages for payload problems, kWire for envelope
// problems), never UB. decode_message is the entry point.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "cookies/descriptor.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/expected.h"

namespace nnn::controlplane {

enum class MessageType : uint8_t {
  kSyncRequest = 1,
  kSnapshot = 2,
  kDelta = 3,
  kHeartbeat = 4,
};

/// Client poll: who is asking and how far they have applied. Version 0
/// means "nothing yet" (a fresh middlebox), which the server answers
/// with a full snapshot.
struct SyncRequest {
  uint64_t client_id = 0;
  uint64_t have_version = 0;

  friend bool operator==(const SyncRequest&, const SyncRequest&) = default;
};

/// Full table at `version`: every live descriptor plus the ids whose
/// revocation tombstones must survive (a middlebox that never saw the
/// grant still reports kDescriptorRevoked, not kUnknownId).
struct SnapshotMessage {
  uint64_t version = 0;
  std::vector<cookies::CookieDescriptor> live;
  std::vector<cookies::CookieId> revoked;

  friend bool operator==(const SnapshotMessage&,
                         const SnapshotMessage&) = default;
};

/// Ordered updates in (from_version, to_version]. A client applies a
/// delta only when from_version equals its applied version; otherwise
/// it re-polls (the server falls back to a snapshot for gaps it has
/// compacted away).
struct DeltaMessage {
  uint64_t from_version = 0;
  uint64_t to_version = 0;
  std::vector<Update> updates;

  friend bool operator==(const DeltaMessage&, const DeltaMessage&) = default;
};

/// "Nothing changed since `version`" — refreshes the client's
/// staleness clock without shipping state.
struct HeartbeatMessage {
  uint64_t version = 0;

  friend bool operator==(const HeartbeatMessage&,
                         const HeartbeatMessage&) = default;
};

using Message =
    std::variant<SyncRequest, SnapshotMessage, DeltaMessage, HeartbeatMessage>;

/// Serialize one message as a sync frame (envelope + typed payload).
util::Bytes encode(const Message& message);

/// Decode the next sync frame at the reader. Unknown frame types are
/// skipped (the reader advances past them and decoding continues with
/// the next frame). Failure carries the rejecting layer: a wire-domain
/// Error for envelope problems (bad magic, truncated frame), a
/// messages-domain Error for a malformed known payload, and
/// kUnknownType when the input held only unknown frames. All failures
/// land in nnn_errors_total.
Expected<Message> decode_message(util::ByteReader& r);

/// Convenience for single-message datagrams.
Expected<Message> decode_message(util::BytesView datagram);

/// Descriptor binary codec, exposed for tests. Field order: id, key,
/// service_data, attributes (granularity, flag bits, transports,
/// optional expiry/mapping_ttl, extras).
void encode_descriptor(util::ByteWriter& w,
                       const cookies::CookieDescriptor& descriptor);
Expected<cookies::CookieDescriptor> decode_descriptor(util::ByteReader& r);

}  // namespace nnn::controlplane
