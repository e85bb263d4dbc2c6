// Hardware pre-filter model (§4.6, "Hardware support for cookies").
//
// "Processing cookies will most likely take place in software, as
// current equipment does not support HMAC-style verification ... The
// hardware could detect and forward to software only packets that
// contain cookies, avoiding the extra overhead for all other packets.
// It could further verify the timestamp and look the cookie id against
// a table of known descriptors, further reducing the amount of packets
// that need to go to software."
//
// HardwareFilter is that match-action stage: no HMAC, no flow state —
// just (i) cookie presence detection on the fixed-offset carriers plus
// a shallow scan of the text carriers, (ii) an exact-match id table,
// (iii) a timestamp window check. Everything it can't vouch for goes
// to software; everything it can reject early never gets there.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "cookies/cookie.h"
#include "net/packet.h"
#include "telemetry/labels.h"
#include "telemetry/view.h"
#include "util/clock.h"

namespace nnn::dataplane {

enum class HwDecision : uint8_t {
  /// No cookie anywhere: skip the software cookie path entirely.
  kFastPath = 0,
  /// Cookie present and plausible (known id, fresh): software must
  /// verify the MAC and the replay cache.
  kToSoftware,
  /// Cookie present but its id is not in the descriptor table: treat
  /// as best-effort without burning a software cycle.
  kRejectUnknownId,
  /// Cookie present but the timestamp is outside the NCT window.
  kRejectStale,
};

// to_string(HwDecision) lives in telemetry/labels.h (included above).

class HardwareFilter {
 public:
  struct Config {
    /// Whether the hardware parses the text carriers (HTTP header /
    /// TLS extension). A conservative deployment sends all TCP payload
    /// within the sniff window to software instead.
    bool parse_text_carriers = true;
  };

  /// Registers nnn_hw_filter_total{decision=...}; pinned (the
  /// collector holds `this`).
  HardwareFilter(const util::Clock& clock, util::Timestamp nct,
                 Config config);
  HardwareFilter(const HardwareFilter&) = delete;
  HardwareFilter& operator=(const HardwareFilter&) = delete;

  /// Program a descriptor id into the table (mirrors the verifier's).
  void learn_id(cookies::CookieId id);
  size_t table_size() const { return ids_.size(); }

  /// The match-action decision for one packet.
  HwDecision classify(const net::Packet& packet);

  /// One cell per HwDecision, the cells nnn_hw_filter_total exports:
  /// `stats().count(HwDecision::kFastPath)`, `stats().total()`.
  const telemetry::StatusCounters<HwDecision, kHwDecisionCount>& stats()
      const {
    return decisions_;
  }

 private:
  const util::Clock& clock_;
  util::Timestamp nct_;
  Config config_;
  std::unordered_set<cookies::CookieId> ids_;
  telemetry::StatusCounters<HwDecision, kHwDecisionCount> decisions_;
  telemetry::Registration registration_;  // last: deregisters first
};

}  // namespace nnn::dataplane
