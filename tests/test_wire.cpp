// Wire codec: real IPv4/IPv6 + TCP/UDP serialization, plus the
// control-plane sync frame envelope and message codecs.
#include <gtest/gtest.h>

#include "controlplane/messages.h"
#include "net/wire.h"
#include "util/rng.h"

namespace nnn::net {
namespace {

Packet base_packet(L4Proto proto, bool ipv6) {
  Packet p;
  if (ipv6) {
    p.ipv6 = true;
    p.tuple.src_ip = IpAddress::parse("2001:db8::10").value();
    p.tuple.dst_ip = IpAddress::parse("2001:db8::20").value();
  } else {
    p.tuple.src_ip = IpAddress::v4(192, 168, 1, 10);
    p.tuple.dst_ip = IpAddress::v4(151, 101, 0, 10);
  }
  p.tuple.src_port = 40000;
  p.tuple.dst_port = 443;
  p.tuple.proto = proto;
  p.payload = {0xde, 0xad, 0xbe, 0xef};
  return p;
}

TEST(Wire, V4TcpRoundTrip) {
  Packet p = base_packet(L4Proto::kTcp, false);
  p.dscp = 46;
  p.ttl = 33;
  p.seq = 123456;
  p.ack_seq = 654321;
  p.syn = true;
  p.ack = true;
  const auto wire = serialize(p);
  const auto parsed = parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tuple, p.tuple);
  EXPECT_EQ(parsed->dscp, 46);
  EXPECT_EQ(parsed->ttl, 33);
  EXPECT_EQ(parsed->seq, 123456u);
  EXPECT_EQ(parsed->ack_seq, 654321u);
  EXPECT_TRUE(parsed->syn);
  EXPECT_TRUE(parsed->ack);
  EXPECT_FALSE(parsed->fin);
  EXPECT_EQ(parsed->payload, p.payload);
  EXPECT_EQ(parsed->wire_size, wire.size());
}

TEST(Wire, V4UdpRoundTrip) {
  const Packet p = base_packet(L4Proto::kUdp, false);
  const auto wire = serialize(p);
  EXPECT_EQ(wire.size(), 20u + 8u + p.payload.size());
  const auto parsed = parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tuple, p.tuple);
  EXPECT_EQ(parsed->payload, p.payload);
}

TEST(Wire, V6TcpRoundTrip) {
  const Packet p = base_packet(L4Proto::kTcp, true);
  const auto wire = serialize(p);
  const auto parsed = parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->ipv6);
  EXPECT_EQ(parsed->tuple, p.tuple);
  EXPECT_EQ(parsed->payload, p.payload);
  EXPECT_FALSE(parsed->l3_cookie.has_value());
}

TEST(Wire, V6HopByHopCookieRoundTrip) {
  Packet p = base_packet(L4Proto::kUdp, true);
  p.l3_cookie = util::Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto wire = serialize(p);
  const auto parsed = parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->l3_cookie.has_value());
  EXPECT_EQ(*parsed->l3_cookie, *p.l3_cookie);
  EXPECT_EQ(parsed->payload, p.payload);
  EXPECT_EQ(parsed->tuple, p.tuple);
}

TEST(Wire, TcpEdoOptionRoundTrip) {
  // A 53-byte cookie exceeds the classic 40-byte TCP option space;
  // the codec emits an EDO option and the parser honors it.
  Packet p = base_packet(L4Proto::kTcp, false);
  p.l4_cookie = util::Bytes(53);
  for (size_t i = 0; i < p.l4_cookie->size(); ++i) {
    (*p.l4_cookie)[i] = static_cast<uint8_t>(i * 7);
  }
  const auto wire = serialize(p);
  const auto parsed = parse_packet(util::BytesView(wire));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->l4_cookie.has_value());
  EXPECT_EQ(*parsed->l4_cookie, *p.l4_cookie);
  EXPECT_EQ(parsed->payload, p.payload);
  EXPECT_EQ(parsed->tuple, p.tuple);
}

TEST(Wire, TcpEdoOverV6RoundTrip) {
  Packet p = base_packet(L4Proto::kTcp, true);
  p.l4_cookie = util::Bytes{1, 2, 3, 4, 5};
  const auto parsed = parse_packet(util::BytesView(serialize(p)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->l4_cookie, p.l4_cookie);
}

TEST(Wire, TcpSmallOptionWithoutEdoNotEmitted) {
  // Without a cookie the header is the plain 20 bytes.
  const Packet p = base_packet(L4Proto::kTcp, false);
  const auto wire = serialize(p);
  EXPECT_EQ(wire.size(), 20u + 20u + p.payload.size());
}

TEST(Wire, V4ChecksumCorruptionDetected) {
  const Packet p = base_packet(L4Proto::kTcp, false);
  auto wire = serialize(p);
  wire[14] ^= 0xff;  // corrupt a source-address byte
  EXPECT_FALSE(parse_packet(util::BytesView(wire)).has_value());
}

/// The TCP and UDP checksums cover the segment over the pseudo-header:
/// a flipped payload byte is caught on both IP versions, while a
/// UDP/IPv4 datagram sent without a checksum (field 0) still parses.
TEST(Wire, TcpUdpChecksumCorruptionDetected) {
  for (const bool ipv6 : {false, true}) {
    for (const auto proto : {L4Proto::kTcp, L4Proto::kUdp}) {
      auto wire = serialize(base_packet(proto, ipv6));
      wire.back() ^= 0x01;  // last payload byte
      const auto parsed = parse_packet(util::BytesView(wire));
      ASSERT_FALSE(parsed.has_value())
          << "ipv6=" << ipv6 << " proto=" << static_cast<int>(proto);
      EXPECT_EQ(parsed.error().code, ErrorCode::kBadChecksum)
          << "ipv6=" << ipv6 << " proto=" << static_cast<int>(proto);
    }
  }
  const Packet udp = base_packet(L4Proto::kUdp, false);
  auto unchecked = serialize(udp);
  unchecked[20 + 6] = 0;  // UDP checksum field: none sent
  unchecked[20 + 7] = 0;
  unchecked.back() ^= 0x01;
  const auto parsed = parse_packet(util::BytesView(unchecked));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload.size(), udp.payload.size());
}

TEST(Wire, TruncationRejected) {
  const Packet p = base_packet(L4Proto::kTcp, false);
  const auto wire = serialize(p);
  for (const size_t keep : {0u, 1u, 10u, 19u, 25u, 39u}) {
    EXPECT_FALSE(
        parse_packet(util::BytesView(wire.data(), std::min(keep, wire.size())))
            .has_value())
        << "keep=" << keep;
  }
}

TEST(Wire, GarbageRejected) {
  util::Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    util::Bytes junk(rng.next_u64(80));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    if (!junk.empty()) junk[0] = static_cast<uint8_t>(rng.next_u64(3) << 4);
    // Must never crash; almost always rejects (version nibble invalid).
    (void)parse_packet(util::BytesView(junk));
  }
  SUCCEED();
}

TEST(Wire, InternetChecksumKnownValue) {
  // Classic example: checksum of this header equals 0xb861.
  const util::Bytes header = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00,
                              0x40, 0x00, 0x40, 0x11, 0x00, 0x00,
                              0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8,
                              0x00, 0xc7};
  EXPECT_EQ(internet_checksum(util::BytesView(header)), 0xb861);
}

class WireRoundtrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireRoundtrip, RandomPacketsRoundtrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    Packet p;
    const bool v6 = rng.chance(0.5);
    p.ipv6 = v6;
    if (v6) {
      std::array<uint8_t, 16> src;
      std::array<uint8_t, 16> dst;
      for (auto& b : src) b = static_cast<uint8_t>(rng.next_u64());
      for (auto& b : dst) b = static_cast<uint8_t>(rng.next_u64());
      p.tuple.src_ip = IpAddress::v6(src);
      p.tuple.dst_ip = IpAddress::v6(dst);
    } else {
      p.tuple.src_ip = IpAddress::v4(rng.next_u32());
      p.tuple.dst_ip = IpAddress::v4(rng.next_u32());
    }
    p.tuple.src_port = static_cast<uint16_t>(rng.next_u64(65536));
    p.tuple.dst_port = static_cast<uint16_t>(rng.next_u64(65536));
    p.tuple.proto = rng.chance(0.5) ? L4Proto::kTcp : L4Proto::kUdp;
    p.dscp = static_cast<uint8_t>(rng.next_u64(64));
    p.payload.resize(rng.next_u64(600));
    for (auto& b : p.payload) b = static_cast<uint8_t>(rng.next_u64());
    if (v6 && rng.chance(0.3)) {
      p.l3_cookie = util::Bytes(1 + rng.next_u64(60));
      for (auto& b : *p.l3_cookie) b = static_cast<uint8_t>(rng.next_u64());
    }
    if (p.tuple.proto == L4Proto::kTcp && rng.chance(0.3)) {
      p.l4_cookie = util::Bytes(1 + rng.next_u64(120));
      for (auto& b : *p.l4_cookie) b = static_cast<uint8_t>(rng.next_u64());
    }
    const auto parsed = parse_packet(util::BytesView(serialize(p)));
    ASSERT_TRUE(parsed.has_value()) << "iteration " << i;
    EXPECT_EQ(parsed->tuple, p.tuple);
    EXPECT_EQ(parsed->dscp, p.dscp);
    EXPECT_EQ(parsed->payload, p.payload);
    EXPECT_EQ(parsed->l3_cookie, p.l3_cookie);
    if (p.is_tcp()) {
      EXPECT_EQ(parsed->l4_cookie, p.l4_cookie);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundtrip, ::testing::Values(3, 5, 7));

// --- Control-plane sync frames and messages ------------------------

TEST(SyncWire, FrameRoundTrip) {
  util::Bytes buffer;
  const util::Bytes payload = {1, 2, 3, 4, 5};
  append_sync_frame(buffer, 9, util::BytesView(payload));
  append_sync_frame(buffer, 4, {});  // empty payload is legal

  util::ByteReader r{util::BytesView(buffer)};
  const auto first = read_sync_frame(r);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, 9);
  EXPECT_EQ(util::Bytes(first->payload.begin(), first->payload.end()),
            payload);
  const auto second = read_sync_frame(r);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, 4);
  EXPECT_TRUE(second->payload.empty());
  EXPECT_TRUE(r.done());
}

TEST(SyncWire, FrameRejectsBadEnvelope) {
  util::Bytes good;
  append_sync_frame(good, 1, {});

  util::Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  util::ByteReader r1{util::BytesView(bad_magic)};
  EXPECT_FALSE(read_sync_frame(r1).has_value());

  util::Bytes bad_version = good;
  bad_version[2] = kSyncVersion + 1;
  util::ByteReader r2{util::BytesView(bad_version)};
  EXPECT_FALSE(read_sync_frame(r2).has_value());

  // Declared length beyond the buffer.
  util::Bytes overrun;
  append_sync_frame(overrun, 1, util::BytesView(good));
  overrun.resize(overrun.size() - 3);
  util::ByteReader r3{util::BytesView(overrun)};
  EXPECT_FALSE(read_sync_frame(r3).has_value());
}

controlplane::SnapshotMessage rich_snapshot() {
  cookies::CookieDescriptor d;
  d.cookie_id = 42;
  d.key.assign(32, 0xab);
  d.service_data = "Boost";
  d.attributes.granularity = cookies::Granularity::kPacket;
  d.attributes.reverse_flow = false;
  d.attributes.shared = true;
  d.attributes.ack_cookie = true;
  d.attributes.delivery_guarantee = true;
  d.attributes.transports = {cookies::Transport::kHttpHeader,
                             cookies::Transport::kTcpOption};
  d.attributes.expires_at = 12'345'678;
  d.attributes.mapping_ttl = 3'600'000'000;
  d.attributes.extra = {{"region", "us"}, {"ssid", "HomeWifi"}};

  cookies::CookieDescriptor plain;
  plain.cookie_id = 43;
  plain.key.assign(32, 0xcd);
  plain.service_data = "zero-rate";

  controlplane::SnapshotMessage snap;
  snap.version = 17;
  snap.live = {d, plain};
  snap.revoked = {5, 6};
  return snap;
}

TEST(SyncWire, MessagesRoundTrip) {
  using controlplane::encode;
  using controlplane::Message;
  auto expect_round_trip = [](const Message& message) {
    const auto decoded =
        controlplane::decode_message(util::BytesView(encode(message)));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, message);
  };

  expect_round_trip(controlplane::SyncRequest{99, 1234});
  expect_round_trip(controlplane::HeartbeatMessage{77});
  expect_round_trip(rich_snapshot());

  controlplane::DeltaMessage delta;
  delta.from_version = 17;
  delta.to_version = 19;
  controlplane::Update add;
  add.version = 18;
  add.op = controlplane::UpdateOp::kAdd;
  add.id = 42;
  add.descriptor = rich_snapshot().live[0];
  controlplane::Update revoke;
  revoke.version = 19;
  revoke.op = controlplane::UpdateOp::kRevoke;
  revoke.id = 42;
  delta.updates = {add, revoke};
  expect_round_trip(delta);
}

TEST(SyncWire, EveryTruncationPrefixRejected) {
  // Chop a maximally-featured snapshot at every length; each prefix
  // must fail to decode (defensive parsing), never crash or misparse.
  const util::Bytes full =
      controlplane::encode(controlplane::Message(rich_snapshot()));
  for (size_t len = 0; len < full.size(); ++len) {
    const util::BytesView prefix(full.data(), len);
    EXPECT_FALSE(controlplane::decode_message(prefix).has_value())
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(SyncWire, UnknownFrameTypeIsSkipped) {
  // A future message type (0x7f) rides ahead of a heartbeat in the
  // same datagram: an old decoder must skip it and find the heartbeat.
  util::Bytes datagram;
  const util::Bytes future = {0xca, 0xfe};
  append_sync_frame(datagram, 0x7f, util::BytesView(future));
  const util::Bytes heartbeat =
      controlplane::encode(controlplane::Message(
          controlplane::HeartbeatMessage{5}));
  datagram.insert(datagram.end(), heartbeat.begin(), heartbeat.end());

  const auto decoded = controlplane::decode_message(util::BytesView(datagram));
  ASSERT_TRUE(decoded.has_value());
  const auto* hb = std::get_if<controlplane::HeartbeatMessage>(&*decoded);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->version, 5u);

  // A datagram of only unknown frames is "no message", not an error
  // loop.
  util::Bytes only_unknown;
  append_sync_frame(only_unknown, 0x70, util::BytesView(future));
  EXPECT_FALSE(
      controlplane::decode_message(util::BytesView(only_unknown)).has_value());
}

TEST(SyncWire, DescriptorCodecRejectsCorruptFields) {
  const cookies::CookieDescriptor d = rich_snapshot().live[0];
  util::Bytes buffer;
  {
    util::ByteWriter w{buffer};
    controlplane::encode_descriptor(w, d);
  }
  {
    util::ByteReader r{util::BytesView(buffer)};
    const auto back = controlplane::decode_descriptor(r);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, d);
  }
  // Corrupt the granularity byte (offset: 8 id + 2+32 key +
  // 2+5 "Boost") to an undefined enum value.
  util::Bytes corrupt = buffer;
  corrupt[8 + 2 + 32 + 2 + 5] = 0x7f;
  util::ByteReader r{util::BytesView(corrupt)};
  EXPECT_FALSE(controlplane::decode_descriptor(r).has_value());
}

// --- Expected-returning API (PR 5) ----------------------------------

/// The every-prefix sweep of parse_packet: each strict prefix of a full
/// wire is a typed wire-domain error, never a crash or a misparse, and
/// the full wire round-trips tuple, payload and the TCP option cookie.
TEST(Wire, ExpectedAndLegacyParseAgreeOnEveryPrefix) {
  for (const bool ipv6 : {false, true}) {
    for (const auto proto : {L4Proto::kTcp, L4Proto::kUdp}) {
      Packet p = base_packet(proto, ipv6);
      if (proto == L4Proto::kTcp) p.l4_cookie = util::Bytes(53, 0x5a);
      const auto wire = serialize(p);
      for (size_t len = 0; len < wire.size(); ++len) {
        const auto prefix = parse_packet(util::BytesView(wire.data(), len));
        ASSERT_FALSE(prefix.has_value()) << "ipv6=" << ipv6 << " len=" << len;
        EXPECT_EQ(prefix.error().domain, ErrorDomain::kWire)
            << "ipv6=" << ipv6 << " len=" << len;
      }
      const auto full = parse_packet(util::BytesView(wire));
      ASSERT_TRUE(full.has_value()) << "ipv6=" << ipv6;
      EXPECT_EQ(full->tuple, p.tuple);
      EXPECT_EQ(full->payload, p.payload);
      EXPECT_EQ(full->l4_cookie, p.l4_cookie);
    }
  }
}

TEST(Wire, ParseErrorsAreTypedAndTallied) {
  const Packet p = base_packet(L4Proto::kTcp, false);
  const auto wire = serialize(p);

  const auto truncated = parse_packet(util::BytesView(wire.data(), 10));
  ASSERT_FALSE(truncated.has_value());
  EXPECT_EQ(truncated.error().domain, ErrorDomain::kWire);
  EXPECT_EQ(truncated.error().code, ErrorCode::kTruncated);

  auto corrupt = wire;
  corrupt[14] ^= 0xff;  // source-address byte -> header checksum
  const auto checksum = parse_packet(util::BytesView(corrupt));
  ASSERT_FALSE(checksum.has_value());
  EXPECT_EQ(checksum.error().code, ErrorCode::kBadChecksum);

  const util::Bytes junk = {0x00};  // version nibble 0
  const auto malformed = parse_packet(util::BytesView(junk));
  ASSERT_FALSE(malformed.has_value());
  EXPECT_EQ(malformed.error().code, ErrorCode::kMalformed);

  // Failures land in the process-wide tally (-> nnn_errors_total).
  const uint64_t before =
      ErrorTally::instance().count(ErrorDomain::kWire, ErrorCode::kTruncated);
  (void)parse_packet(util::BytesView(wire.data(), 10));
  EXPECT_EQ(
      ErrorTally::instance().count(ErrorDomain::kWire, ErrorCode::kTruncated),
      before + 1);
}

TEST(SyncWire, DecodeMessageErrorsAreTyped) {
  // Empty datagram.
  const auto empty = controlplane::decode_message(util::BytesView());
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().domain, ErrorDomain::kMessages);
  EXPECT_EQ(empty.error().code, ErrorCode::kTruncated);

  // Envelope failures propagate the wire-domain error untouched.
  util::Bytes bad_magic = controlplane::encode(
      controlplane::Message(controlplane::HeartbeatMessage{5}));
  bad_magic[0] ^= 0xff;
  const auto magic = controlplane::decode_message(util::BytesView(bad_magic));
  ASSERT_FALSE(magic.has_value());
  EXPECT_EQ(magic.error().domain, ErrorDomain::kWire);
  EXPECT_EQ(magic.error().code, ErrorCode::kBadMagic);

  // A datagram of only unknown frames: no message, typed as such.
  util::Bytes only_unknown;
  const util::Bytes future = {0xca, 0xfe};
  append_sync_frame(only_unknown, 0x70, util::BytesView(future));
  const auto unknown =
      controlplane::decode_message(util::BytesView(only_unknown));
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().domain, ErrorDomain::kMessages);
  EXPECT_EQ(unknown.error().code, ErrorCode::kUnknownType);
}

// --- Frame-length hardening and stream reassembly (PR 6) -----------

/// Build a bare 8-byte sync envelope with an arbitrary length field —
/// the hostile input a decoder must reject before sizing any buffer.
util::Bytes envelope_with_length(uint32_t len) {
  util::Bytes header;
  util::ByteWriter w{header};
  w.u16(kSyncMagic);
  w.u8(kSyncVersion);
  w.u8(1);
  w.u32(len);
  return header;
}

TEST(SyncWire, HostileLengthFieldRejectedBeforeAllocation) {
  // Lengths just past the cap and at the u32 maximum: both must fail
  // kMalformed from the 8-byte header alone — no payload bytes exist,
  // so any attempt to buffer/reserve the declared length would differ
  // observably (kTruncated at best, a 4 GiB allocation at worst).
  for (const uint32_t hostile :
       {static_cast<uint32_t>(max_sync_frame_payload()) + 1, 0xffffffffu}) {
    const util::Bytes header = envelope_with_length(hostile);
    util::ByteReader r{util::BytesView(header)};
    const auto frame = read_sync_frame(r);
    ASSERT_FALSE(frame.has_value()) << "len=" << hostile;
    EXPECT_EQ(frame.error().code, ErrorCode::kMalformed);

    const auto probe = peek_sync_frame(util::BytesView(header));
    ASSERT_FALSE(probe.has_value()) << "len=" << hostile;
    EXPECT_EQ(probe.error().code, ErrorCode::kMalformed);
  }
}

TEST(SyncWire, ConfigurableFramePayloadCap) {
  // A frame legal under the default cap becomes malformed when an
  // operator lowers the cap, and legal again once restored.
  util::Bytes frame;
  append_sync_frame(frame, 1, util::Bytes(2048, 0xee));
  const auto parse_it = [&] {
    util::ByteReader r{util::BytesView(frame)};
    return read_sync_frame(r).has_value();
  };
  EXPECT_TRUE(parse_it());
  set_max_sync_frame_payload(1024);
  EXPECT_FALSE(parse_it());
  EXPECT_FALSE(peek_sync_frame(util::BytesView(frame)).has_value());
  set_max_sync_frame_payload(kDefaultMaxSyncFramePayload);
  EXPECT_TRUE(parse_it());
}

/// One multi-frame stream covering the sync message family: request,
/// heartbeat, a maximally-featured snapshot, a delta, an empty
/// payload, and an unknown future type the assembler must pass
/// through opaquely.
util::Bytes family_stream() {
  util::Bytes stream;
  const util::Bytes request = controlplane::encode(
      controlplane::Message(controlplane::SyncRequest{99, 1234}));
  stream.insert(stream.end(), request.begin(), request.end());
  const util::Bytes heartbeat = controlplane::encode(
      controlplane::Message(controlplane::HeartbeatMessage{77}));
  stream.insert(stream.end(), heartbeat.begin(), heartbeat.end());
  const util::Bytes snapshot =
      controlplane::encode(controlplane::Message(rich_snapshot()));
  stream.insert(stream.end(), snapshot.begin(), snapshot.end());
  append_sync_frame(stream, 4, {});  // empty payload is legal
  const util::Bytes future = {0xca, 0xfe, 0xba, 0xbe};
  append_sync_frame(stream, 0x7f, util::BytesView(future));
  return stream;
}

/// Whole-buffer reference parse: every frame in order via the
/// datagram-path decoder the chunked paths must agree with.
std::vector<std::pair<uint8_t, util::Bytes>> reference_frames(
    const util::Bytes& stream) {
  std::vector<std::pair<uint8_t, util::Bytes>> frames;
  util::ByteReader r{util::BytesView(stream)};
  while (!r.done()) {
    const auto frame = read_sync_frame(r);
    if (!frame.has_value()) break;
    frames.emplace_back(frame->type, util::Bytes(frame->payload.begin(),
                                                 frame->payload.end()));
  }
  return frames;
}

TEST(SyncWire, ByteAtATimeDeliveryMatchesWholeBufferParse) {
  const util::Bytes stream = family_stream();
  const auto expected = reference_frames(stream);
  ASSERT_EQ(expected.size(), 5u);

  FrameAssembler assembler;
  std::vector<std::pair<uint8_t, util::Bytes>> got;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_FALSE(assembler.feed(util::BytesView(&stream[i], 1)).has_value())
        << "byte " << i;
    while (auto frame = assembler.next()) {
      got.emplace_back(frame->type, std::move(frame->payload));
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_FALSE(assembler.poisoned());
}

TEST(SyncWire, RandomChunkDeliveryMatchesWholeBufferParse) {
  const util::Bytes stream = family_stream();
  const auto expected = reference_frames(stream);
  for (const uint64_t seed : {11u, 23u, 47u, 101u}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    FrameAssembler assembler;
    std::vector<std::pair<uint8_t, util::Bytes>> got;
    size_t offset = 0;
    while (offset < stream.size()) {
      // Chunk sizes 1..64 stress every split point across the 8-byte
      // header and payload boundaries.
      const size_t n = std::min<size_t>(1 + rng.next_u64(64),
                                        stream.size() - offset);
      ASSERT_FALSE(
          assembler.feed(util::BytesView(&stream[offset], n)).has_value());
      offset += n;
      while (auto frame = assembler.next()) {
        got.emplace_back(frame->type, std::move(frame->payload));
      }
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(assembler.buffered(), 0u);
  }
}

TEST(SyncWire, AssemblerPoisonsOnHostileStreamAndStaysPoisoned) {
  // A garbage envelope after one good frame: the good frame pops,
  // then the stream is dead — byte streams cannot resynchronize
  // framing. (The envelope must reach its full 8 bytes before the
  // probe can condemn it; until then it is merely "incomplete".)
  util::Bytes stream;
  append_sync_frame(stream, 2, util::Bytes{9, 9});
  util::Bytes garbage = envelope_with_length(4);
  garbage[0] ^= 0xff;  // not kSyncMagic
  stream.insert(stream.end(), garbage.begin(), garbage.end());

  FrameAssembler assembler;
  ASSERT_FALSE(assembler.feed(util::BytesView(stream)).has_value());
  const auto frame = assembler.next();
  ASSERT_TRUE(frame.has_value());  // the frame ahead of the garbage
  EXPECT_EQ(frame->type, 2);
  EXPECT_FALSE(assembler.next().has_value());  // hits the bad envelope
  EXPECT_TRUE(assembler.poisoned());
  // Further feeding fails without inspecting the new bytes.
  util::Bytes good;
  append_sync_frame(good, 1, {});
  const auto err = assembler.feed(util::BytesView(good));
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kBadMagic);

  // An oversized length field poisons at feed() time — checked at the
  // envelope, before the declared payload is buffered.
  FrameAssembler oversized;
  const auto huge = envelope_with_length(0xffffffffu);
  const auto huge_err = oversized.feed(util::BytesView(huge));
  ASSERT_TRUE(huge_err.has_value());
  EXPECT_EQ(huge_err->code, ErrorCode::kMalformed);
  EXPECT_TRUE(oversized.poisoned());
}

}  // namespace
}  // namespace nnn::net
