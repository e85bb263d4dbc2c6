// Minimal leveled logger.
//
// Library code logs through this instead of writing to stderr directly
// so tests can silence or capture output. Default severity is kWarn to
// keep benches quiet.
//
// Thread-safe: the runtime's worker threads and its ingest thread log
// concurrently. The level is an atomic (hot-path check stays a single
// relaxed load); sink swaps and sink invocations are serialized by a
// mutex, so a sink installed by a test never races with a log call
// from a worker.
//
// Counting: every log event is tallied per level — and per component
// for tagged calls — BEFORE the level filter runs. A component that
// fails open under backpressure emits warns that the default kWarn
// threshold may suppress in benches; the counts still move, and the
// telemetry registry exports them as `nnn_log_total{level=...}` /
// `nnn_log_component_total{component=...}`, so silent fail-open shows
// up on the metrics endpoint even when nothing reached the sink. The
// counters live here as plain atomics (not telemetry instruments) so
// util stays at the bottom of the link graph; the telemetry module
// installs the collector that reads them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/fmt.h"

namespace nnn::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-wide log sink and level.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;
  static constexpr size_t kLevels = 4;
  /// Per-level event counts for one component, indexed by LogLevel.
  using LevelCounts = std::array<uint64_t, kLevels>;

  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Replace the sink (tests use this to capture); pass nullptr to
  /// restore the default stderr sink.
  void set_sink(Sink sink);

  void log(LogLevel level, std::string_view msg);
  /// Tagged variant: `component` names the subsystem ("runtime",
  /// "boost-agent", ...) for per-component counting; the sink sees
  /// "component: msg".
  void log(LogLevel level, std::string_view component, std::string_view msg);

  template <typename... Args>
  void logf(LogLevel level, std::string_view fmt, Args&&... args) {
    count_event(level, {});
    if (level < level_.load(std::memory_order_relaxed)) return;
    emit(level, {}, util::fmt(fmt, std::forward<Args>(args)...));
  }

  /// Tagged logf (distinct name: with a leading string argument an
  /// overload of logf would be ambiguous against the format string).
  template <typename... Args>
  void logt(LogLevel level, std::string_view component, std::string_view fmt,
            Args&&... args) {
    count_event(level, component);
    if (level < level_.load(std::memory_order_relaxed)) return;
    emit(level, component, util::fmt(fmt, std::forward<Args>(args)...));
  }

  /// Events seen at `level` since start (or reset_counts()),
  /// including events the level filter suppressed.
  uint64_t count(LogLevel level) const;

  /// Visit per-component counts (tagged calls only), keyed by
  /// component name, holding the counts lock — keep `fn` cheap.
  void visit_component_counts(
      const std::function<void(std::string_view, const LevelCounts&)>& fn)
      const;

  /// Zero all level and component counts (tests).
  void reset_counts();

 private:
  Logger();
  void count_event(LogLevel level, std::string_view component);
  void emit(LogLevel level, std::string_view component, std::string_view msg);

  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mutex_;  // guards sink_ swap and invocation
  Sink sink_;

  std::array<std::atomic<uint64_t>, kLevels> counts_{};
  mutable std::mutex counts_mutex_;  // guards component_counts_
  std::map<std::string, LevelCounts, std::less<>> component_counts_;
};

template <typename... Args>
void log_debug(std::string_view fmt, Args&&... args) {
  Logger::instance().logf(LogLevel::kDebug, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_info(std::string_view fmt, Args&&... args) {
  Logger::instance().logf(LogLevel::kInfo, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn(std::string_view fmt, Args&&... args) {
  Logger::instance().logf(LogLevel::kWarn, fmt, std::forward<Args>(args)...);
}
template <typename... Args>
void log_error(std::string_view fmt, Args&&... args) {
  Logger::instance().logf(LogLevel::kError, fmt, std::forward<Args>(args)...);
}

/// Component-tagged helpers (counted under the component in
/// `nnn_log_component_total`).
template <typename... Args>
void log_debug_tagged(std::string_view component, std::string_view fmt,
                      Args&&... args) {
  Logger::instance().logt(LogLevel::kDebug, component, fmt,
                          std::forward<Args>(args)...);
}
template <typename... Args>
void log_info_tagged(std::string_view component, std::string_view fmt,
                     Args&&... args) {
  Logger::instance().logt(LogLevel::kInfo, component, fmt,
                          std::forward<Args>(args)...);
}
template <typename... Args>
void log_warn_tagged(std::string_view component, std::string_view fmt,
                     Args&&... args) {
  Logger::instance().logt(LogLevel::kWarn, component, fmt,
                          std::forward<Args>(args)...);
}
template <typename... Args>
void log_error_tagged(std::string_view component, std::string_view fmt,
                      Args&&... args) {
  Logger::instance().logt(LogLevel::kError, component, fmt,
                          std::forward<Args>(args)...);
}

}  // namespace nnn::util
