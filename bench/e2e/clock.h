// PausableClock: the virtual time every nnnbench run lives in.
//
// Traffic is generated in rounds outside the timed region. If the
// dataplane saw wall time, every generation pause would age cookie
// timestamps, slide the NCT replay window and idle out flows — the
// middlebox would see gaps no real link has. This clock freezes while
// a round is generated (after drain(), so no worker is mid-burst) and
// resumes exactly where it stopped, so the Dataplane and the traffic
// sources see one uninterrupted stretch of traffic, and rates measured
// in it exclude generation.
//
// Threading: now() is safe from any thread (workers read it once per
// burst). pause()/resume() belong to the one thread driving the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/clock.h"

namespace nnnbench {

class PausableClock final : public nnn::util::Clock {
 public:
  /// Starts paused at `origin` (virtual microseconds).
  explicit PausableClock(nnn::util::Timestamp origin)
      : frozen_ns_(origin * 1000) {}
  PausableClock(const PausableClock&) = delete;
  PausableClock& operator=(const PausableClock&) = delete;

  nnn::util::Timestamp now() const override { return now_ns() / 1000; }

  /// Virtual nanoseconds: the run's own timeline, for latency.
  int64_t now_ns() const {
    const int64_t frozen = frozen_ns_.load(std::memory_order_acquire);
    if (frozen >= 0) return frozen;
    return steady_ns() - offset_ns_.load(std::memory_order_relaxed);
  }

  bool paused() const {
    return frozen_ns_.load(std::memory_order_acquire) >= 0;
  }

  void pause() {
    if (!paused()) frozen_ns_.store(now_ns(), std::memory_order_release);
  }

  /// Continue from the frozen instant. The offset is published before
  /// the unfreeze (release), so a reader that sees "running" also sees
  /// the offset that keeps time monotonic.
  void resume() {
    const int64_t frozen = frozen_ns_.load(std::memory_order_acquire);
    if (frozen < 0) return;
    offset_ns_.store(steady_ns() - frozen, std::memory_order_relaxed);
    frozen_ns_.store(-1, std::memory_order_release);
  }

  static int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<int64_t> offset_ns_{0};
  /// Virtual ns while paused; -1 while running.
  std::atomic<int64_t> frozen_ns_;
};

}  // namespace nnnbench
