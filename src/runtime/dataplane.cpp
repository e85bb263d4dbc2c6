#include "runtime/dataplane.h"

namespace nnn::runtime {

Dataplane::Dataplane(const util::Clock& clock,
                     dataplane::ServiceRegistry& registry, Config config)
    : config_(config),
      pool_(clock, registry, config.pool),
      cache_(pool_.arena()) {}

PacketHandle Dataplane::make_packet() {
  PacketHandle handle = cache_.alloc();
  if (handle) reset_for_reuse(*handle);
  return handle;
}

size_t Dataplane::steer(const net::Packet& packet) {
  if (config_.policy == dataplane::DispatchPolicy::kDescriptorAffinity) {
    quic::learn_steering(aliases_, packet);
  }
  return route(packet);
}

bool Dataplane::ingest(PacketHandle&& handle) {
  if (!handle) {
    // Arena exhausted at make_packet(): record the shed on worker 0 so
    // the ledger keeps one home for every ingest attempt.
    return pool_.submit_handle(0, std::move(handle));
  }
  const size_t worker = steer(*handle);
  return pool_.submit_handle(worker, std::move(handle));
}

void Dataplane::ingest_blocking(PacketHandle&& handle) {
  if (!handle) {
    pool_.submit_handle(0, std::move(handle));
    return;
  }
  const size_t worker = steer(*handle);
  pool_.submit_handle_blocking(worker, std::move(handle));
}

void Dataplane::stop() {
  // Return the producer stash before stopping so the post-stop leak
  // gate (arena().outstanding() == 0) holds without caveats.
  cache_.flush();
  pool_.stop();
}

}  // namespace nnn::runtime
