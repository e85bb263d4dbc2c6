// Packet generator for the Fig. 4 throughput experiment.
//
// Plays the role of MoonGen in the paper's setup: "We connected our
// middlebox with a MoonGen packet generator which sends flows with
// cookies and monitors how fast our middlebox can forward packets.
// Assuming 50-packet flows, 100K cookie descriptors, and a cookie for
// each flow..." The generator pre-builds a batch of flows — each
// carrying one valid cookie in its first packet, signed against one of
// N descriptors — at a fixed packet size, which the bench then pushes
// through a Middlebox while timing it.
#pragma once

#include <cstdint>
#include <vector>

#include "cookies/descriptor.h"
#include "cookies/generator.h"
#include "cookies/verifier.h"
#include "net/packet.h"
#include "util/clock.h"
#include "util/rng.h"

namespace nnn::workload {

class PacketGenerator {
 public:
  struct Config {
    uint32_t packet_size = 512;   // on-wire bytes per packet
    uint32_t packets_per_flow = 50;
    size_t descriptors = 100'000;
    /// Carrier of the flow's cookie. UDP-shim by default: matches the
    /// packet-based-cookie deployment and keeps the generator cheap.
    cookies::Transport transport = cookies::Transport::kUdpHeader;
  };

  /// Builds `config.descriptors` descriptors, installs them into
  /// `verifier`, and prepares per-descriptor generators.
  PacketGenerator(Config config, const util::Clock& clock,
                  cookies::CookieVerifier& verifier, uint64_t seed);

  /// Produce `flow_count` flows (each packets_per_flow packets; the
  /// first carries a fresh cookie from a random descriptor). Tuples
  /// are unique per flow.
  std::vector<net::Packet> make_batch(size_t flow_count);

  /// Zero-copy variant: write the next packet of the stream in place
  /// (typically into a PacketArena slot handed out by
  /// Dataplane::make_packet). `out` must arrive reset/default-fresh;
  /// payload capacity is reused. Given the same construction seed,
  /// repeated fill_next() calls produce bit-identical packets to
  /// make_batch() — the differential test in tests/test_runtime leans
  /// on that equivalence.
  void fill_next(net::Packet& out);

  const Config& config() const { return config_; }

  /// The descriptors this generator signs with, for installing into
  /// additional verifiers (the threaded runtime replicates descriptor
  /// tables across workers; see runtime::Dataplane::add_descriptor).
  std::vector<cookies::CookieDescriptor> descriptors() const;

 private:
  Config config_;
  const util::Clock& clock_;
  util::Rng rng_;
  std::vector<cookies::CookieGenerator> generators_;
  uint32_t next_flow_id_ = 1;
  /// fill_next() stream position: packet index within the current
  /// flow; 0 means the next call opens a new flow.
  uint32_t flow_pos_ = 0;
  net::FiveTuple flow_tuple_{};
  cookies::CookieGenerator* flow_generator_ = nullptr;
};

}  // namespace nnn::workload
