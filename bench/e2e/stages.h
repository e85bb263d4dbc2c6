// The traced run's stage replay.
//
// Re-generates the workload's first capacity-phase packets (same seed,
// same round start times, so the same packets) and drives them
// single-threaded through each layer's public functions, one timed
// pass per stage per round, in pipeline order:
//
//   runtime.steer        Dataplane::route() on the traced run's plane
//   net.cookie_bytes     Packet::cookie_bytes()
//   cookies.peek_id      peek_cookie_id() on each carrier found
//   quic.learn           quic::learn_steering() into a CidAliasTable
//   cookies.extract      cookies::extract() on each cookie packet
//   crypto.hmac          Cookie::compute_tag(HmacKeySchedule)
//   state.descriptor_find DescriptorTable::find() (external table) or
//                        CookieVerifier::find() (local install)
//   cookies.verify       CookieVerifier::verify_batch() per burst, on a
//                        standalone verifier configured like a worker
//   state.replay_insert  ReplayCache::insert() into one NCT cache
//   dataplane.process    Middlebox::process_batch() per 32-packet
//                        burst, on a second standalone shard
//
// Each pass is one span under its round (calls = the calls it made),
// so the stage's per-call cost is its span's duration over its calls.
#pragma once

#include <cstdint>
#include <vector>

#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace nnnbench {

struct StageResult {
  uint64_t packets = 0;
  uint64_t verify_calls = 0;
  uint64_t verify_ok = 0;
};

/// `round_packets` and `round_starts` (virtual ns) are the traced run's
/// capacity rounds; rounds past them continue at the nominal pace. `rig`
/// is the traced run's (drained) rig: route() reads its steering state,
/// and an external-table workload verifies against its table.
StageResult stage_replay(const Workload& workload, uint64_t seed,
                         size_t packets, size_t round_packets,
                         const std::vector<int64_t>& round_starts,
                         const Rig& rig, Tracer& tracer);

}  // namespace nnnbench
