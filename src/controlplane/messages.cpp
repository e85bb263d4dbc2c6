#include "controlplane/messages.h"

#include <string>
#include <utility>

#include "net/wire.h"

namespace nnn::controlplane {

namespace {

using util::ByteReader;
using util::Bytes;
using util::BytesView;
using util::ByteWriter;

constexpr uint8_t kFlagReverseFlow = 1u << 0;
constexpr uint8_t kFlagShared = 1u << 1;
constexpr uint8_t kFlagAckCookie = 1u << 2;
constexpr uint8_t kFlagDeliveryGuarantee = 1u << 3;

constexpr uint8_t kMaxTransport =
    static_cast<uint8_t>(cookies::Transport::kQuicTransportParam);

/// Build, tally, and wrap a messages-domain error (payload problems;
/// envelope problems keep their wire-domain Error from
/// net::read_sync_frame).
Unexpected<Error> msg_error(ErrorCode code, std::string_view detail = {}) {
  const Error error{ErrorDomain::kMessages, code, detail};
  count_error(error);
  return unexpected(error);
}

void encode_string(ByteWriter& w, const std::string& s) {
  w.u16(static_cast<uint16_t>(s.size()));
  w.raw(std::string_view(s));
}

std::optional<std::string> decode_string(ByteReader& r) {
  const auto len = r.u16();
  if (!len) return std::nullopt;
  const auto view = r.view(*len);
  if (!view) return std::nullopt;
  return util::to_string(*view);
}

void encode_update(ByteWriter& w, const Update& update) {
  w.u64(update.version);
  w.u8(static_cast<uint8_t>(update.op));
  w.u64(update.id);
  if (update.op == UpdateOp::kAdd) encode_descriptor(w, update.descriptor);
}

Expected<Update> decode_update(ByteReader& r) {
  Update update;
  const auto version = r.u64();
  const auto op = r.u8();
  const auto id = r.u64();
  if (!version || !op || !id) {
    return msg_error(ErrorCode::kTruncated, "update");
  }
  if (*op > static_cast<uint8_t>(UpdateOp::kRemove)) {
    return msg_error(ErrorCode::kMalformed, "update op");
  }
  update.version = *version;
  update.op = static_cast<UpdateOp>(*op);
  update.id = *id;
  if (update.op == UpdateOp::kAdd) {
    auto descriptor = decode_descriptor(r);
    if (!descriptor) return unexpected(descriptor.error());
    if (descriptor->cookie_id != update.id) {
      return msg_error(ErrorCode::kMalformed, "update id mismatch");
    }
    update.descriptor = std::move(*descriptor);
  }
  return update;
}

Bytes encode_payload(const SyncRequest& m) {
  Bytes out;
  ByteWriter w(out);
  w.u64(m.client_id);
  w.u64(m.have_version);
  return out;
}

Bytes encode_payload(const SnapshotMessage& m) {
  Bytes out;
  ByteWriter w(out);
  w.u64(m.version);
  w.u32(static_cast<uint32_t>(m.live.size()));
  for (const auto& descriptor : m.live) encode_descriptor(w, descriptor);
  w.u32(static_cast<uint32_t>(m.revoked.size()));
  for (const cookies::CookieId id : m.revoked) w.u64(id);
  return out;
}

Bytes encode_payload(const DeltaMessage& m) {
  Bytes out;
  ByteWriter w(out);
  w.u64(m.from_version);
  w.u64(m.to_version);
  w.u32(static_cast<uint32_t>(m.updates.size()));
  for (const Update& update : m.updates) encode_update(w, update);
  return out;
}

Bytes encode_payload(const HeartbeatMessage& m) {
  Bytes out;
  ByteWriter w(out);
  w.u64(m.version);
  return out;
}

Expected<Message> decode_payload(MessageType type, BytesView payload) {
  ByteReader r(payload);
  switch (type) {
    case MessageType::kSyncRequest: {
      const auto client_id = r.u64();
      const auto have_version = r.u64();
      if (!client_id || !have_version) {
        return msg_error(ErrorCode::kTruncated, "sync request");
      }
      return Message{SyncRequest{*client_id, *have_version}};
    }
    case MessageType::kSnapshot: {
      SnapshotMessage m;
      const auto version = r.u64();
      const auto live_count = r.u32();
      if (!version || !live_count) {
        return msg_error(ErrorCode::kTruncated, "snapshot header");
      }
      m.version = *version;
      m.live.reserve(*live_count);
      for (uint32_t i = 0; i < *live_count; ++i) {
        auto descriptor = decode_descriptor(r);
        if (!descriptor) return unexpected(descriptor.error());
        m.live.push_back(std::move(*descriptor));
      }
      const auto revoked_count = r.u32();
      if (!revoked_count) {
        return msg_error(ErrorCode::kTruncated, "snapshot revoked");
      }
      m.revoked.reserve(*revoked_count);
      for (uint32_t i = 0; i < *revoked_count; ++i) {
        const auto id = r.u64();
        if (!id) return msg_error(ErrorCode::kTruncated, "snapshot revoked");
        m.revoked.push_back(*id);
      }
      return Message{std::move(m)};
    }
    case MessageType::kDelta: {
      DeltaMessage m;
      const auto from_version = r.u64();
      const auto to_version = r.u64();
      const auto count = r.u32();
      if (!from_version || !to_version || !count) {
        return msg_error(ErrorCode::kTruncated, "delta header");
      }
      m.from_version = *from_version;
      m.to_version = *to_version;
      m.updates.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        auto update = decode_update(r);
        if (!update) return unexpected(update.error());
        m.updates.push_back(std::move(*update));
      }
      return Message{std::move(m)};
    }
    case MessageType::kHeartbeat: {
      const auto version = r.u64();
      if (!version) return msg_error(ErrorCode::kTruncated, "heartbeat");
      return Message{HeartbeatMessage{*version}};
    }
  }
  return msg_error(ErrorCode::kUnknownType);
}

}  // namespace

void encode_descriptor(ByteWriter& w,
                       const cookies::CookieDescriptor& descriptor) {
  w.u64(descriptor.cookie_id);
  w.u16(static_cast<uint16_t>(descriptor.key.size()));
  w.raw(BytesView(descriptor.key));
  encode_string(w, descriptor.service_data);
  const cookies::Attributes& a = descriptor.attributes;
  w.u8(static_cast<uint8_t>(a.granularity));
  uint8_t flags = 0;
  if (a.reverse_flow) flags |= kFlagReverseFlow;
  if (a.shared) flags |= kFlagShared;
  if (a.ack_cookie) flags |= kFlagAckCookie;
  if (a.delivery_guarantee) flags |= kFlagDeliveryGuarantee;
  w.u8(flags);
  w.u8(static_cast<uint8_t>(a.transports.size()));
  for (const cookies::Transport t : a.transports) {
    w.u8(static_cast<uint8_t>(t));
  }
  w.u8(a.expires_at.has_value() ? 1 : 0);
  w.u64(a.expires_at ? static_cast<uint64_t>(*a.expires_at) : 0);
  w.u8(a.mapping_ttl.has_value() ? 1 : 0);
  w.u64(a.mapping_ttl ? static_cast<uint64_t>(*a.mapping_ttl) : 0);
  w.u16(static_cast<uint16_t>(a.extra.size()));
  for (const auto& [key, value] : a.extra) {
    encode_string(w, key);
    encode_string(w, value);
  }
}

Expected<cookies::CookieDescriptor> decode_descriptor(ByteReader& r) {
  cookies::CookieDescriptor d;
  const auto id = r.u64();
  if (!id) return msg_error(ErrorCode::kTruncated, "descriptor id");
  d.cookie_id = *id;
  const auto key_len = r.u16();
  if (!key_len) return msg_error(ErrorCode::kTruncated, "descriptor key");
  auto key = r.raw(*key_len);
  if (!key) return msg_error(ErrorCode::kTruncated, "descriptor key");
  d.key = std::move(*key);
  auto service_data = decode_string(r);
  if (!service_data) {
    return msg_error(ErrorCode::kTruncated, "descriptor service data");
  }
  d.service_data = std::move(*service_data);

  cookies::Attributes& a = d.attributes;
  const auto granularity = r.u8();
  const auto flags = r.u8();
  if (!granularity || !flags) {
    return msg_error(ErrorCode::kTruncated, "descriptor attributes");
  }
  if (*granularity > static_cast<uint8_t>(cookies::Granularity::kPacket)) {
    return msg_error(ErrorCode::kMalformed, "descriptor granularity");
  }
  a.granularity = static_cast<cookies::Granularity>(*granularity);
  a.reverse_flow = *flags & kFlagReverseFlow;
  a.shared = *flags & kFlagShared;
  a.ack_cookie = *flags & kFlagAckCookie;
  a.delivery_guarantee = *flags & kFlagDeliveryGuarantee;

  const auto transport_count = r.u8();
  if (!transport_count) {
    return msg_error(ErrorCode::kTruncated, "descriptor transports");
  }
  a.transports.reserve(*transport_count);
  for (uint8_t i = 0; i < *transport_count; ++i) {
    const auto t = r.u8();
    if (!t) return msg_error(ErrorCode::kTruncated, "descriptor transports");
    if (*t > kMaxTransport) {
      return msg_error(ErrorCode::kMalformed, "descriptor transport");
    }
    a.transports.push_back(static_cast<cookies::Transport>(*t));
  }

  const auto has_expires = r.u8();
  const auto expires = r.u64();
  if (!has_expires || !expires) {
    return msg_error(ErrorCode::kTruncated, "descriptor expiry");
  }
  if (*has_expires) a.expires_at = static_cast<util::Timestamp>(*expires);
  const auto has_ttl = r.u8();
  const auto ttl = r.u64();
  if (!has_ttl || !ttl) {
    return msg_error(ErrorCode::kTruncated, "descriptor ttl");
  }
  if (*has_ttl) a.mapping_ttl = static_cast<util::Timestamp>(*ttl);

  const auto extra_count = r.u16();
  if (!extra_count) return msg_error(ErrorCode::kTruncated, "descriptor extra");
  for (uint16_t i = 0; i < *extra_count; ++i) {
    auto key_str = decode_string(r);
    if (!key_str) return msg_error(ErrorCode::kTruncated, "descriptor extra");
    auto value = decode_string(r);
    if (!value) return msg_error(ErrorCode::kTruncated, "descriptor extra");
    a.extra.emplace(std::move(*key_str), std::move(*value));
  }
  return d;
}

util::Bytes encode(const Message& message) {
  Bytes out;
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        MessageType type;
        if constexpr (std::is_same_v<T, SyncRequest>) {
          type = MessageType::kSyncRequest;
        } else if constexpr (std::is_same_v<T, SnapshotMessage>) {
          type = MessageType::kSnapshot;
        } else if constexpr (std::is_same_v<T, DeltaMessage>) {
          type = MessageType::kDelta;
        } else {
          type = MessageType::kHeartbeat;
        }
        const Bytes payload = encode_payload(m);
        net::append_sync_frame(out, static_cast<uint8_t>(type),
                               BytesView(payload));
      },
      message);
  return out;
}

Expected<Message> decode_message(ByteReader& r) {
  if (r.done()) return msg_error(ErrorCode::kTruncated, "empty datagram");
  while (!r.done()) {
    const auto frame = net::read_sync_frame(r);
    // Envelope failures keep their wire-domain Error (already tallied).
    if (!frame) return unexpected(frame.error());
    if (frame->type < static_cast<uint8_t>(MessageType::kSyncRequest) ||
        frame->type > static_cast<uint8_t>(MessageType::kHeartbeat)) {
      continue;  // unknown type: envelope told us how far to skip
    }
    return decode_payload(static_cast<MessageType>(frame->type),
                          frame->payload);
  }
  return msg_error(ErrorCode::kUnknownType, "no known frame");
}

Expected<Message> decode_message(BytesView datagram) {
  ByteReader r(datagram);
  return decode_message(r);
}

}  // namespace nnn::controlplane
