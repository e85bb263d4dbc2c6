// Spans for nnnbench's traced run.
//
// The benchmark times layers from outside: a span wraps calls into one
// layer's public functions (a burst of make_packet() calls, one stage
// pass of the stage replay), records how many calls it covered, and
// names the span that caused it. Spans stay in memory and are written
// once, at exit, as
//   {"spans": [{"name", "id", "parent", "start_ns", "end_ns", "calls"}]}
// with parent 0 for roots and times in steady-clock nanoseconds.
//
// Every timed interval also feeds a per-name (total ns, calls)
// accumulator, so per-layer metrics cover every call even when only a
// sample of the spans is kept.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nnnbench {

struct Span {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 0;
};

struct SpanTotals {
  uint64_t ns = 0;
  uint64_t calls = 0;
  /// Over kept spans only: duration minus the time kept children cover.
  uint64_t self_ns = 0;
  uint64_t kept = 0;

  double ns_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

class Tracer {
 public:
  /// The spans' time base: steady-clock nanoseconds.
  static int64_t now_ns();

  /// Open a kept span whose children are added before it closes.
  /// `name` must outlive the tracer (string literals): spans store the
  /// pointer.
  uint32_t open(const char* name, uint32_t parent, int64_t start);
  void close(uint32_t id, int64_t end, uint64_t calls);

  /// A closed interval of `calls` calls to `name`. Always accumulated;
  /// kept as a span (returning its id) only when `keep`.
  uint32_t add(const char* name, uint32_t parent, int64_t start, int64_t end,
               uint64_t calls, bool keep = true);

  /// Per-name totals, with self time computed over the kept spans.
  std::map<std::string, SpanTotals> summary() const;
  double ns_per_call(const std::string& name) const;

  size_t kept() const { return spans_.size(); }
  bool write(const std::string& path) const;

 private:
  void account(const char* name, int64_t start, int64_t end, uint64_t calls);

  std::vector<Span> spans_;
  std::map<std::string, SpanTotals> totals_;
};

}  // namespace nnnbench
