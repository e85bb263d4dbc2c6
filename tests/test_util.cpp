// Remaining util coverage: fmt, strings, clock, logging, Expected/Error.
#include <gtest/gtest.h>

#include <memory>

#include "telemetry/labels.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/expected.h"
#include "util/fmt.h"
#include "util/logging.h"
#include "util/strings.h"

namespace nnn::util {
namespace {

TEST(Fmt, SubstitutesInOrder) {
  EXPECT_EQ(fmt("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(fmt("{}", std::string("str")), "str");
  EXPECT_EQ(fmt("no placeholders"), "no placeholders");
}

TEST(Fmt, HexSpec) {
  EXPECT_EQ(fmt("{:x}", 255), "ff");
  EXPECT_EQ(fmt("0x{:x}!", 4096), "0x1000!");
}

TEST(Fmt, SurplusPlaceholdersRenderLiterally) {
  EXPECT_EQ(fmt("{} and {}", 1), "1 and {}");
}

TEST(Fmt, SurplusArgumentsIgnored) {
  EXPECT_EQ(fmt("only {}", 1, 2, 3), "only 1");
}

TEST(Fmt, MixedTypes) {
  EXPECT_EQ(fmt("{}|{}|{}", "a", 2.5, false), "a|2.5|0");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("nosep", ','), (std::vector<std::string>{"nosep"}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC-123"), "abc-123");
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("http://x", "http://"));
  EXPECT_FALSE(starts_with("x", "http://"));
  EXPECT_TRUE(ends_with("file.cpp", ".cpp"));
  EXPECT_FALSE(ends_with("cpp", ".cpp"));
}

TEST(Strings, DomainMatches) {
  EXPECT_TRUE(domain_matches("cnn.com", "cnn.com"));
  EXPECT_TRUE(domain_matches("cdn.cnn.com", "cnn.com"));
  EXPECT_TRUE(domain_matches("CDN.CNN.COM", "cnn.com"));
  EXPECT_FALSE(domain_matches("notcnn.com", "cnn.com"));
  EXPECT_FALSE(domain_matches("cnn.com.evil.example", "cnn.com"));
  EXPECT_FALSE(domain_matches("com", "cnn.com"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Clock, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(10);
  EXPECT_EQ(clock.now(), 10);
}

TEST(Clock, SystemClockIsMonotonicNonDecreasing) {
  SystemClock clock;
  const Timestamp a = clock.now();
  const Timestamp b = clock.now();
  EXPECT_LE(a, b);
}

TEST(Logging, SinkCapturesAtOrAboveLevel) {
  auto& logger = Logger::instance();
  const LogLevel saved_level = logger.level();
  std::vector<std::string> captured;
  logger.set_sink([&](LogLevel, std::string_view msg) {
    captured.emplace_back(msg);
  });
  logger.set_level(LogLevel::kWarn);
  log_debug("hidden {}", 1);
  log_info("hidden too");
  log_warn("warn {}", 2);
  log_error("error {}", 3);
  EXPECT_EQ(captured, (std::vector<std::string>{"warn 2", "error 3"}));
  // Restore defaults for other tests.
  logger.set_sink(nullptr);
  logger.set_level(saved_level);
}

TEST(Expected, ValueAndErrorAlternatives) {
  Expected<int> ok = 42;
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  Expected<int> bad =
      unexpected(Error{ErrorDomain::kWire, ErrorCode::kTruncated, "hdr"});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().domain, ErrorDomain::kWire);
  EXPECT_EQ(bad.error().code, ErrorCode::kTruncated);
  EXPECT_EQ(bad.error().detail, "hdr");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Expected, EqualityIgnoresDetail) {
  const Error a{ErrorDomain::kSync, ErrorCode::kTimeout, "poll"};
  const Error b{ErrorDomain::kSync, ErrorCode::kTimeout, "other"};
  const Error c{ErrorDomain::kSync, ErrorCode::kUnavailable};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Expected, MoveOnlyValue) {
  Expected<std::unique_ptr<int>> ok = std::make_unique<int>(7);
  ASSERT_TRUE(ok.has_value());
  std::unique_ptr<int> moved = std::move(ok).value();
  EXPECT_EQ(*moved, 7);
}

TEST(Expected, VoidSpecialization) {
  Expected<void> ok;
  EXPECT_TRUE(ok.has_value());
  Expected<void> bad =
      unexpected(Error{ErrorDomain::kServer, ErrorCode::kQuotaExceeded});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, ErrorCode::kQuotaExceeded);
}

TEST(ErrorTaxonomy, ToStringFormats) {
  EXPECT_EQ(nnn::to_string(ErrorDomain::kWire), "wire");
  EXPECT_EQ(nnn::to_string(ErrorCode::kBadChecksum), "bad-checksum");
  EXPECT_EQ(nnn::to_string(Error{ErrorDomain::kWire, ErrorCode::kTruncated}),
            "wire/truncated");
  EXPECT_EQ(nnn::to_string(Error{ErrorDomain::kVerify, ErrorCode::kReplayed,
                                 "uuid cache"}),
            "verify/replayed (uuid cache)");
}

TEST(ErrorTaxonomy, TallyCountsByDomainAndCode) {
  auto& tally = ErrorTally::instance();
  const uint64_t before =
      tally.count(ErrorDomain::kMessages, ErrorCode::kTruncated);
  count_error({ErrorDomain::kMessages, ErrorCode::kTruncated});
  count_error({ErrorDomain::kMessages, ErrorCode::kTruncated, "delta"});
  EXPECT_EQ(tally.count(ErrorDomain::kMessages, ErrorCode::kTruncated),
            before + 2);
  // The zero Error is never tallied.
  const uint64_t total = tally.total();
  count_error({});
  EXPECT_EQ(tally.total(), total);
}

TEST(ErrorTaxonomy, VisitSkipsZeroCells) {
  auto& tally = ErrorTally::instance();
  count_error({ErrorDomain::kFault, ErrorCode::kOverload});
  bool saw = false;
  uint64_t nonzero_cells = 0;
  tally.visit([&](ErrorDomain d, ErrorCode c, uint64_t n) {
    EXPECT_GT(n, 0u);
    ++nonzero_cells;
    if (d == ErrorDomain::kFault && c == ErrorCode::kOverload) saw = true;
  });
  EXPECT_TRUE(saw);
  EXPECT_GT(nonzero_cells, 0u);
}

}  // namespace
}  // namespace nnn::util
