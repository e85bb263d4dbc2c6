#include "trace.h"

#include <chrono>
#include <cstdio>

namespace nnnbench {

int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::open(const char* name, uint32_t parent, int64_t start) {
  Span span;
  span.name = name;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = start;
  spans_.push_back(span);
  return span.id;
}

void Tracer::close(uint32_t id, int64_t end, uint64_t calls) {
  Span& span = spans_[id - 1];
  span.end_ns = end;
  span.calls = calls;
  account(span.name, span.start_ns, end, calls);
}

uint32_t Tracer::add(const char* name, uint32_t parent, int64_t start,
                     int64_t end, uint64_t calls, bool keep) {
  account(name, start, end, calls);
  if (!keep) return 0;
  const uint32_t id = open(name, parent, start);
  spans_[id - 1].end_ns = end;
  spans_[id - 1].calls = calls;
  return id;
}

void Tracer::account(const char* name, int64_t start, int64_t end,
                     uint64_t calls) {
  SpanTotals& totals = totals_[name];
  totals.ns += static_cast<uint64_t>(end - start);
  totals.calls += calls;
}

std::map<std::string, SpanTotals> Tracer::summary() const {
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, SpanTotals> out = totals_;
  for (const Span& span : spans_) {
    SpanTotals& totals = out[span.name];
    const int64_t self = span.end_ns - span.start_ns - child_ns[span.id];
    totals.self_ns += static_cast<uint64_t>(self > 0 ? self : 0);
    ++totals.kept;
  }
  return out;
}

double Tracer::ns_per_call(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.ns_per_call();
}

bool Tracer::write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"calls\": %llu}",
                 i == 0 ? "" : ",", s.name, s.id, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.calls));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace nnnbench
