#include "telemetry/exposition.h"

#include <string_view>

namespace nnn::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view text,
                    bool escape_quotes) {
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '"':
        if (escape_quotes) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default:
        out += c;
    }
  }
}

/// `{key="value",...}` — or nothing when there are no labels and no
/// extra pair. `extra_key`/`extra_value` append one more pair (the
/// histogram `le` bound) after the sample's own labels.
void append_labels(std::string& out, const LabelSet& labels,
                   std::string_view extra_key = {},
                   std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels.pairs()) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    append_escaped(out, value, /*escape_quotes=*/true);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_escaped(out, extra_value, /*escape_quotes=*/true);
    out += '"';
  }
  out += '}';
}

void append_histogram(std::string& out, const Family& family,
                      const Sample& sample) {
  uint64_t cumulative = 0;
  for (const auto& [upper, count] : sample.histogram.buckets) {
    cumulative += count;
    out += family.name;
    out += "_bucket";
    append_labels(out, sample.labels, "le", std::to_string(upper));
    out += ' ';
    out += std::to_string(cumulative);
    out += '\n';
  }
  out += family.name;
  out += "_bucket";
  append_labels(out, sample.labels, "le", "+Inf");
  out += ' ';
  out += std::to_string(sample.histogram.count);
  out += '\n';
  out += family.name;
  out += "_sum";
  append_labels(out, sample.labels);
  out += ' ';
  out += std::to_string(sample.histogram.sum);
  out += '\n';
  out += family.name;
  out += "_count";
  append_labels(out, sample.labels);
  out += ' ';
  out += std::to_string(sample.histogram.count);
  out += '\n';
}

}  // namespace

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  for (const Family& family : snapshot.families) {
    out += "# HELP ";
    out += family.name;
    out += ' ';
    append_escaped(out, family.help, /*escape_quotes=*/false);
    out += '\n';
    out += "# TYPE ";
    out += family.name;
    out += ' ';
    out += to_string(family.type);
    out += '\n';
    for (const Sample& sample : family.samples) {
      if (family.type == MetricType::kHistogram) {
        append_histogram(out, family, sample);
        continue;
      }
      out += family.name;
      append_labels(out, sample.labels);
      out += ' ';
      out += family.type == MetricType::kGauge
                 ? std::to_string(sample.gauge_value)
                 : std::to_string(sample.counter_value);
      out += '\n';
    }
  }
  return out;
}

json::Value to_json(const Snapshot& snapshot) {
  // emplace_back builds each json::Value in place from its Object; a
  // push_back moves a temporary Value, whose std::variant g++ 12 at
  // -O2/-O3 warns may be used uninitialized.
  json::Array families;
  families.reserve(snapshot.families.size());
  for (const Family& family : snapshot.families) {
    json::Array samples;
    samples.reserve(family.samples.size());
    for (const Sample& sample : family.samples) {
      json::Object labels;
      for (const auto& [key, value] : sample.labels.pairs()) {
        labels[key] = value;
      }
      json::Object entry;
      entry["labels"] = std::move(labels);
      switch (family.type) {
        case MetricType::kCounter:
          entry["value"] = sample.counter_value;
          break;
        case MetricType::kGauge:
          entry["value"] = sample.gauge_value;
          break;
        case MetricType::kHistogram: {
          json::Array buckets;
          buckets.reserve(sample.histogram.buckets.size());
          for (const auto& [upper, count] : sample.histogram.buckets) {
            json::Object bucket;
            bucket["le"] = upper;
            bucket["count"] = count;
            buckets.emplace_back(std::move(bucket));
          }
          entry["count"] = sample.histogram.count;
          entry["sum"] = sample.histogram.sum;
          entry["buckets"] = std::move(buckets);
          break;
        }
      }
      samples.emplace_back(std::move(entry));
    }
    json::Object fam;
    fam["name"] = family.name;
    fam["type"] = to_string(family.type);
    fam["help"] = family.help;
    fam["samples"] = std::move(samples);
    families.emplace_back(std::move(fam));
  }
  json::Object root;
  root["families"] = std::move(families);
  return json::Value(std::move(root));
}

}  // namespace nnn::telemetry
