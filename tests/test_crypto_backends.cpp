// The SHA-256 backend matrix: every known-answer vector must hold
// bit-identically under the scalar reference and the SHA-NI backend
// (when the CPU has it), and the midstate save/resume path used by
// HmacKeySchedule must agree with one-shot hashing under both.
#include <gtest/gtest.h>

#include <string>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/rng.h"

namespace nnn::crypto {
namespace {

using util::Bytes;
using util::BytesView;
using util::hex_encode;

class Sha256BackendTest : public ::testing::TestWithParam<Sha256Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Sha256Backend::kShaNi && !sha256_shani_supported()) {
      GTEST_SKIP() << "SHA-NI not available on this CPU/build";
    }
    prev_ = sha256_backend();
    sha256_set_backend(GetParam());
  }
  void TearDown() override { sha256_set_backend(prev_); }

 private:
  Sha256Backend prev_ = Sha256Backend::kScalar;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, Sha256BackendTest,
    ::testing::Values(Sha256Backend::kScalar, Sha256Backend::kShaNi),
    [](const ::testing::TestParamInfo<Sha256Backend>& info) {
      return info.param == Sha256Backend::kScalar ? "Scalar" : "ShaNi";
    });

std::string sha256_hex(std::string_view msg) {
  const auto digest = Sha256::hash(msg);
  return hex_encode(BytesView(digest.data(), digest.size()));
}

std::string hmac_hex(BytesView key, BytesView data) {
  const auto digest = hmac_sha256(key, data);
  return hex_encode(BytesView(digest.data(), digest.size()));
}

TEST_P(Sha256BackendTest, NistVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256BackendTest, MultiBlockBulkUpdate) {
  // 4 blocks in one update() exercises the multi-block compress loop
  // (the SHA-NI kernel keeps state in registers across blocks).
  const std::string msg(256, 'a');
  Sha256 whole;
  whole.update(msg);
  Sha256 split;
  for (size_t i = 0; i < msg.size(); i += 64) split.update(msg.substr(i, 64));
  const auto digest = whole.finish();
  EXPECT_EQ(digest, split.finish());
  EXPECT_EQ(digest, Sha256::hash(msg));
}

TEST_P(Sha256BackendTest, PaddingBoundaries) {
  for (const size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 incremental;
    incremental.update(msg);
    EXPECT_EQ(incremental.finish(), Sha256::hash(msg)) << "len=" << len;
  }
}

TEST_P(Sha256BackendTest, MidstateResumeMatchesOneShot) {
  // Save after the first block, resume into a fresh hasher: the digest
  // must match hashing the concatenation directly. This is exactly the
  // HmacKeySchedule trick.
  util::Rng rng(7);
  Bytes prefix(64);
  for (auto& b : prefix) b = static_cast<uint8_t>(rng.next_u64());
  for (const size_t tail_len : {0u, 1u, 32u, 63u, 64u, 200u}) {
    Bytes tail(tail_len);
    for (auto& b : tail) b = static_cast<uint8_t>(rng.next_u64());

    Sha256 precompute;
    precompute.update(BytesView(prefix));
    const Sha256State mid = precompute.save_state();

    Sha256 resumed;
    resumed.restore(mid);
    resumed.update(BytesView(tail));

    Bytes whole(prefix);
    whole.insert(whole.end(), tail.begin(), tail.end());
    EXPECT_EQ(resumed.finish(), Sha256::hash(BytesView(whole)))
        << "tail=" << tail_len;
  }
}

TEST_P(Sha256BackendTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex(BytesView(key), BytesView(util::to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST_P(Sha256BackendTest, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_hex(BytesView(util::to_bytes("Jefe")),
               BytesView(util::to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST_P(Sha256BackendTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hmac_hex(BytesView(key), BytesView(data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST_P(Sha256BackendTest, Rfc4231Case4) {
  Bytes key(25);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i + 1);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(hmac_hex(BytesView(key), BytesView(data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST_P(Sha256BackendTest, Rfc4231Case5Truncated) {
  // Case 5 truncates to 128 bits — the exact cookie_tag size.
  const Bytes key(20, 0x0c);
  const auto data = util::to_bytes("Test With Truncation");
  const CookieTag tag = cookie_tag(BytesView(key), BytesView(data));
  EXPECT_EQ(hex_encode(BytesView(tag.data(), tag.size())),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST_P(Sha256BackendTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hmac_hex(BytesView(key),
               BytesView(util::to_bytes(
                   "Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST_P(Sha256BackendTest, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hmac_hex(BytesView(key),
               BytesView(util::to_bytes(
                   "This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm."))),
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST_P(Sha256BackendTest, KeyScheduleMatchesOneShotHmac) {
  // The precomputed-midstate path must agree with the reference HMAC
  // for every key-length class (short, exactly block, hashed-down).
  util::Rng rng(11);
  for (const size_t key_len : {1u, 20u, 32u, 63u, 64u, 65u, 131u}) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<uint8_t>(rng.next_u64());
    const HmacKeySchedule schedule{BytesView(key)};
    for (const size_t msg_len : {0u, 8u, 32u, 64u, 200u}) {
      Bytes msg(msg_len);
      for (auto& b : msg) b = static_cast<uint8_t>(rng.next_u64());
      EXPECT_EQ(schedule.digest(BytesView(msg)),
                hmac_sha256(BytesView(key), BytesView(msg)))
          << "key=" << key_len << " msg=" << msg_len;
      EXPECT_EQ(schedule.tag(BytesView(msg)),
                cookie_tag(BytesView(key), BytesView(msg)))
          << "key=" << key_len << " msg=" << msg_len;
    }
  }
}

TEST(Sha256Dispatch, DefaultBackendMatchesCpu) {
  // The dispatcher must pick hardware exactly when it exists (and the
  // build did not disable it); sha256_set_backend is a test-only
  // override on top of that.
  if (sha256_shani_supported()) {
    EXPECT_EQ(sha256_backend(), Sha256Backend::kShaNi);
  } else {
    EXPECT_EQ(sha256_backend(), Sha256Backend::kScalar);
  }
  EXPECT_STREQ(to_string(Sha256Backend::kScalar), "scalar");
  EXPECT_STREQ(to_string(Sha256Backend::kShaNi), "sha-ni");
}

TEST(Sha256Dispatch, BackendsProduceIdenticalDigests) {
  if (!sha256_shani_supported()) {
    GTEST_SKIP() << "SHA-NI not available on this CPU/build";
  }
  const auto prev = sha256_backend();
  util::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data(rng.next_u64(512));
    for (auto& b : data) b = static_cast<uint8_t>(rng.next_u64());
    sha256_set_backend(Sha256Backend::kScalar);
    const auto scalar = Sha256::hash(BytesView(data));
    sha256_set_backend(Sha256Backend::kShaNi);
    const auto hw = Sha256::hash(BytesView(data));
    EXPECT_EQ(scalar, hw) << "len=" << data.size();
  }
  sha256_set_backend(prev);
}

}  // namespace
}  // namespace nnn::crypto
