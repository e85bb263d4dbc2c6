// One error taxonomy for every subsystem (API-redesign satellite).
//
// Before this header each layer reported failure its own way: wire
// parsing returned std::optional (truncation indistinguishable from a
// bad checksum), cookie verification had VerifyStatus, the cookie
// server had AcquireError, and the sync client counted timeouts into a
// bare counter. A deployment debugging "why did this middlebox degrade"
// needs one vocabulary that a metric label, a log line, and a unit
// test can all speak. nnn::Error is that vocabulary:
//
//   domain — which subsystem raised it (wire, sync, verify, ...)
//   code   — what went wrong, from one shared enum so the same
//            condition spells the same way in every domain
//            (kTruncated means truncated whether the bytes were an
//            IPv4 header or a descriptor payload)
//   detail — optional static context ("ipv4 header", "delta payload");
//            always a string_view into a literal, never allocated, so
//            constructing an Error on a parse path costs nothing.
//
// server::AcquireError maps into the taxonomy through to_error().
// cookies::VerifyStatus stays its own one-byte hot-path enum, counted
// per value by telemetry::StatusCounters.
//
// Counting: every Error can be tallied into the process-wide
// ErrorTally (a fixed domain x code matrix of relaxed atomics). The
// telemetry registry installs a collector at startup that exports the
// non-zero cells as nnn_errors_total{domain=...,code=...} — call sites
// never format a string. util stays at the bottom of the link graph,
// exactly like util::Logger's level counts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace nnn {

enum class ErrorDomain : uint8_t {
  kNone = 0,    // "no domain": the zero Error, never counted
  kWire,        // net/wire packet + frame codecs
  kMessages,    // controlplane typed message payloads
  kCookie,      // cookie blob codec
  kVerify,      // §4.2 verification outcomes
  kSync,        // snapshot/delta sync channel (client side)
  kServer,      // cookie server acquire/revoke
  kFault,       // injected faults (so chaos runs are auditable)
  kNetio,       // epoll network edge (sockets, framing, timeouts)
  kFlow,        // flow-identity state (flow table, CID alias table)
};
inline constexpr size_t kErrorDomainCount = 10;

/// Shared across domains: a condition spells the same way everywhere.
enum class ErrorCode : uint8_t {
  kOk = 0,             // the zero Error only; never a real failure
  kTruncated,          // input ended before the structure did
  kBadMagic,           // envelope marker mismatch
  kUnsupportedVersion, // protocol newer than this decoder
  kBadChecksum,        // integrity check over the bytes failed
  kMalformed,          // structurally invalid known payload
  kUnknownType,        // no known payload type in the input
  kUnknownProtocol,    // L4 protocol outside the modeled set
  kUnknownId,          // id not in the descriptor table
  kBadSignature,       // MAC mismatch
  kStaleTimestamp,     // outside the network coherency time
  kReplayed,           // use-once violation
  kExpired,            // descriptor lifetime passed
  kRevoked,            // descriptor tombstoned
  kUnavailable,        // peer/service not answering (outage, breaker)
  kTimeout,            // request exceeded its response budget
  kOverload,           // shed by admission control
  kStale,              // operating beyond the staleness budget
  kAuthRequired,       // credentials missing
  kBadCredentials,     // credentials rejected
  kQuotaExceeded,      // per-account issue limit reached
};
inline constexpr size_t kErrorCodeCount = 21;

struct Error {
  ErrorDomain domain = ErrorDomain::kNone;
  ErrorCode code = ErrorCode::kOk;
  /// Static context only — a view into a string literal. Not part of
  /// identity: two errors are equal when domain and code match.
  std::string_view detail{};

  friend bool operator==(const Error& a, const Error& b) {
    return a.domain == b.domain && a.code == b.code;
  }
};

// to_string(ErrorDomain) / to_string(ErrorCode) live in
// telemetry/labels.h — the one header home for label vocabulary.

/// "domain/code" or "domain/code (detail)" — cold-path formatting for
/// logs and test failure messages. Declared here, defined in
/// telemetry/labels.cpp next to the name tables it needs (util sits
/// below telemetry in the link graph, same split as util::Logger).
std::string to_string(const Error& error);

/// Process-wide domain x code tally. inc() is a relaxed fetch_add —
/// errors are cold by definition, and multiple threads (workers, the
/// control thread, a server) may raise them concurrently. The
/// telemetry registry exports non-zero cells as
/// nnn_errors_total{domain=...,code=...}.
class ErrorTally {
 public:
  static ErrorTally& instance();

  void count(const Error& error) noexcept {
    if (error.domain == ErrorDomain::kNone) return;
    cells_[index(error.domain, error.code)].fetch_add(
        1, std::memory_order_relaxed);
  }

  uint64_t count(ErrorDomain domain, ErrorCode code) const noexcept {
    return cells_[index(domain, code)].load(std::memory_order_relaxed);
  }

  uint64_t total() const noexcept {
    uint64_t sum = 0;
    for (const auto& cell : cells_) {
      sum += cell.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Visit every non-zero (domain, code, count) cell.
  template <typename Fn>
  void visit(Fn&& fn) const {
    for (size_t d = 0; d < kErrorDomainCount; ++d) {
      for (size_t c = 0; c < kErrorCodeCount; ++c) {
        const uint64_t n =
            cells_[d * kErrorCodeCount + c].load(std::memory_order_relaxed);
        if (n != 0) {
          fn(static_cast<ErrorDomain>(d), static_cast<ErrorCode>(c), n);
        }
      }
    }
  }

  /// Zero every cell (tests).
  void reset() noexcept {
    for (auto& cell : cells_) cell.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr size_t index(ErrorDomain domain, ErrorCode code) noexcept {
    return static_cast<size_t>(domain) * kErrorCodeCount +
           static_cast<size_t>(code);
  }

  std::array<std::atomic<uint64_t>, kErrorDomainCount * kErrorCodeCount>
      cells_{};
};

/// Tally an error into the process-wide matrix. The one-liner call
/// sites use on failure paths; no formatting, no allocation.
inline void count_error(const Error& error) {
  ErrorTally::instance().count(error);
}

}  // namespace nnn
