// Telemetry: instruments, registry merge, views, exporters (golden),
// and the differential check that views are bit-identical to the seed
// *Stats accessors on a fixed trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/stats.h"
#include "cookies/generator.h"
#include "cookies/verifier.h"
#include "dataplane/flow_table.h"
#include "dataplane/middlebox.h"
#include "dataplane/qos.h"
#include "server/json_api.h"
#include "telemetry/exposition.h"
#include "telemetry/labels.h"
#include "telemetry/metrics.h"
#include "telemetry/view.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workload/samplers.h"

namespace nnn {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::LabelSet;
using telemetry::Registry;
using telemetry::Snapshot;

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

TEST(Telemetry, CounterSingleWriterOps) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.dec(2);
  EXPECT_EQ(c.value(), 40u);
  c.inc_release(2);
  EXPECT_EQ(c.value_acquire(), 42u);
  c.set(7);
  EXPECT_EQ(c.value(), 7u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Telemetry, GaugeGoesNegative) {
  Gauge g;
  g.set(10);
  g.sub(25);
  EXPECT_EQ(g.value(), -15);
  g.add(15);
  EXPECT_EQ(g.value(), 0);
}

TEST(Telemetry, ShardedCounterSumsAcrossThreads) {
  telemetry::ShardedCounter c;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Telemetry, HistogramBucketMathInvariants) {
  const uint64_t values[] = {0,    1,    7,     8,      9,     15,
                             16,   17,   255,   256,    257,   1000,
                             4095, 4096, 65537, 1u << 20, 1ull << 40};
  for (const uint64_t v : values) {
    const uint32_t i = Histogram::bucket_index(v);
    ASSERT_LT(i, Histogram::kBuckets);
    // v lands at or below its bucket's upper bound...
    EXPECT_GE(Histogram::bucket_upper_bound(i), v) << "v=" << v;
    // ...and strictly above the previous bucket's.
    if (i > 0) {
      EXPECT_LT(Histogram::bucket_upper_bound(i - 1), v) << "v=" << v;
    }
  }
  // Upper bounds are strictly increasing (total order across buckets).
  for (uint32_t i = 1; i < 64; ++i) {
    EXPECT_GT(Histogram::bucket_upper_bound(i),
              Histogram::bucket_upper_bound(i - 1));
  }
  // Small values are exact: one bucket per integer through 15.
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_upper_bound(static_cast<uint32_t>(v)), v);
  }
}

TEST(Telemetry, HistogramRecordCountSum) {
  Histogram h;
  const uint64_t values[] = {0, 1, 7, 8, 100, 1'000'000};
  uint64_t expected_sum = 0;
  for (const uint64_t v : values) {
    h.record(v);
    expected_sum += v;
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), expected_sum);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Telemetry, HistogramQuantileExactInIdentityRange) {
  // Small values occupy single-value buckets, so the estimator is
  // exact there — no interpolation error to excuse.
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.record(v);
  EXPECT_EQ(h.value_at_quantile(0.0), 1u);  // q=0 -> minimum
  EXPECT_EQ(h.value_at_quantile(0.5), 5u);
  EXPECT_EQ(h.value_at_quantile(1.0), 10u);
  EXPECT_EQ(Histogram().value_at_quantile(0.5), 0u);  // empty -> 0
}

TEST(Telemetry, HistogramQuantileRepeatedValue) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.value_at_quantile(q), 7u) << "q=" << q;
  }
}

TEST(Telemetry, HistogramQuantileGoldenVsExactQuantiles) {
  // Golden contract with the audit stats core: on a realistic
  // heavy-tail sample the log-linear estimate must land within one
  // sub-bucket's relative width (kSubBits=3 -> 1/8 = 12.5%) of the
  // exact sorted-sample quantile. The sample set is seed-pinned
  // (StableLogNormal), so a regression in either estimator trips this
  // deterministically.
  nnn::util::Rng rng(2024);
  const nnn::workload::StableLogNormal dist(10.0, 0.7);
  Histogram h;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const auto v = static_cast<uint64_t>(dist.next(rng));
    h.record(v);
    samples.push_back(static_cast<double>(v));
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = nnn::audit::exact_quantile(samples, q);
    const double estimate = static_cast<double>(h.value_at_quantile(q));
    EXPECT_NEAR(estimate, exact, exact * 0.13 + 1.0)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(Telemetry, ScopedTimerRespectsGlobalSwitch) {
  Histogram h;
  telemetry::set_timers_enabled(false);
  { telemetry::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 0u);
  telemetry::set_timers_enabled(true);
  { telemetry::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(Telemetry, LabelSetSortsAndCompares) {
  LabelSet a{{"z", "1"}, {"a", "2"}};
  EXPECT_EQ(a.pairs()[0].first, "a");
  EXPECT_EQ(a.pairs()[1].first, "z");
  LabelSet b{{"a", "2"}, {"z", "1"}};
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.contains_all(LabelSet{{"a", "2"}}));
  EXPECT_FALSE(a.contains_all(LabelSet{{"a", "3"}}));
  EXPECT_TRUE(a.contains_all(LabelSet{}));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Telemetry, RegistryMergesIdenticalLabelSets) {
  Registry reg;
  const auto r1 = reg.add_collector([](telemetry::SampleBuilder& b) {
    b.counter("nnn_x_total", "help", LabelSet{{"k", "a"}}, 2);
  });
  const auto r2 = reg.add_collector([](telemetry::SampleBuilder& b) {
    b.counter("nnn_x_total", "help", LabelSet{{"k", "a"}}, 3);
    b.counter("nnn_x_total", "help", LabelSet{{"k", "b"}}, 7);
  });
  const Snapshot snap = reg.snapshot();
  const telemetry::Family* fam = snap.find("nnn_x_total");
  ASSERT_NE(fam, nullptr);
  ASSERT_EQ(fam->samples.size(), 2u);  // {k=a} merged, {k=b} distinct
  EXPECT_EQ(fam->samples[0].counter_value, 5u);
  EXPECT_EQ(fam->samples[1].counter_value, 7u);
  EXPECT_EQ(snap.counter_total("nnn_x_total"), 12u);
  EXPECT_EQ(snap.counter_total("nnn_x_total", LabelSet{{"k", "a"}}), 5u);
  EXPECT_EQ(snap.counter_total("nnn_absent_total"), 0u);
}

TEST(Telemetry, RegistrationDeregistersOnDestruction) {
  Registry reg;
  {
    const auto r = reg.add_collector([](telemetry::SampleBuilder& b) {
      b.counter("nnn_gone_total", "help", {}, 1);
    });
    EXPECT_EQ(reg.collector_count(), 1u);
    EXPECT_NE(reg.snapshot().find("nnn_gone_total"), nullptr);
  }
  EXPECT_EQ(reg.collector_count(), 0u);
  EXPECT_EQ(reg.snapshot().find("nnn_gone_total"), nullptr);
}

TEST(Telemetry, StatusCountersEmitOneSamplePerValue) {
  telemetry::StatusCounters<cookies::VerifyStatus,
                            cookies::kVerifyStatusCount>
      status;
  status.inc(cookies::VerifyStatus::kOk, 5);
  status.inc(cookies::VerifyStatus::kReplayed, 2);
  EXPECT_EQ(status.total(), 7u);
  Registry reg;
  const auto r = reg.add_collector([&](telemetry::SampleBuilder& b) {
    status.collect(b, "nnn_s_total", "help",
                   [](cookies::VerifyStatus s) { return to_string(s); });
  });
  const Snapshot snap = reg.snapshot();
  const telemetry::Family* fam = snap.find("nnn_s_total");
  ASSERT_NE(fam, nullptr);
  EXPECT_EQ(fam->samples.size(), cookies::kVerifyStatusCount);
  EXPECT_EQ(snap.counter_total("nnn_s_total", LabelSet{{"status", "ok"}}),
            5u);
  EXPECT_EQ(
      snap.counter_total("nnn_s_total", LabelSet{{"status", "replayed"}}),
      2u);
}

TEST(Telemetry, ViewCellsRoundTripThroughRegistry) {
  Registry reg;
  telemetry::View<dataplane::MiddleboxStats> view;
  view.register_with(reg);
  view.cell<&dataplane::MiddleboxStats::packets>().inc(5);
  view.cell<&dataplane::MiddleboxStats::bytes>().inc(640);
  const dataplane::MiddleboxStats s = view.snapshot();
  EXPECT_EQ(s.packets, 5u);
  EXPECT_EQ(s.bytes, 640u);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_total("nnn_middlebox_packets_total"), 5u);
  EXPECT_EQ(snap.counter_total("nnn_middlebox_bytes_total"), 640u);
}

// ---------------------------------------------------------------------------
// Exporters (structure + golden files)
// ---------------------------------------------------------------------------

/// Deterministic fixture registry both exporters render.
class GoldenRegistry {
 public:
  GoldenRegistry() {
    latency_.record(0);
    latency_.record(5);
    latency_.record(100);
    latency_.record(4096);
    registration_ = registry_.add_collector(
        [this](telemetry::SampleBuilder& b) {
          b.counter("nnn_test_requests_total", "Requests by status",
                    LabelSet{{"status", "ok"}}, 3);
          b.counter("nnn_test_requests_total", "Requests by status",
                    LabelSet{{"status", "error"}}, 1);
          b.gauge("nnn_test_queue_depth", "Current queue depth", {}, 7);
          b.histogram("nnn_test_latency_nanos", "Request latency", {},
                      latency_);
          b.counter("nnn_test_escapes_total", "Label escaping",
                    LabelSet{{"path", "a\"b\\c\nd"}}, 1);
        });
  }

  Snapshot snapshot() const { return registry_.snapshot(); }

 private:
  Registry registry_;
  Histogram latency_;
  telemetry::Registration registration_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `actual` against the golden file; regenerate goldens with
/// NNN_UPDATE_GOLDEN=1 in the environment.
void expect_matches_golden(const std::string& actual,
                           const std::string& filename) {
  const std::string path = std::string(NNN_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("NNN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << path
      << " (run with NNN_UPDATE_GOLDEN=1 to create)";
  EXPECT_EQ(actual, expected) << "exposition drifted from " << filename;
}

TEST(Telemetry, PrometheusGolden) {
  const GoldenRegistry fixture;
  expect_matches_golden(telemetry::to_prometheus(fixture.snapshot()),
                        "metrics.prom");
}

TEST(Telemetry, JsonGolden) {
  const GoldenRegistry fixture;
  expect_matches_golden(
      telemetry::to_json(fixture.snapshot()).dump_pretty() + "\n",
      "metrics.json");
}

TEST(Telemetry, PrometheusHistogramIsCumulativeWithInf) {
  const GoldenRegistry fixture;
  const std::string text = telemetry::to_prometheus(fixture.snapshot());
  EXPECT_NE(text.find("# TYPE nnn_test_latency_nanos histogram"),
            std::string::npos);
  EXPECT_NE(text.find("nnn_test_latency_nanos_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("nnn_test_latency_nanos_count 4"), std::string::npos);
  EXPECT_NE(text.find("nnn_test_latency_nanos_sum 4201"), std::string::npos);
}

TEST(Telemetry, JsonExportParsesBack) {
  const GoldenRegistry fixture;
  const json::Value v = telemetry::to_json(fixture.snapshot());
  const auto reparsed = json::parse(v.dump());
  ASSERT_TRUE(reparsed.has_value());
  const json::Value* families = reparsed->find("families");
  ASSERT_NE(families, nullptr);
  ASSERT_TRUE(families->is_array());
  EXPECT_EQ(families->as_array().size(), 4u);
}

// ---------------------------------------------------------------------------
// Differential: views vs seed accessors on a fixed trace
// ---------------------------------------------------------------------------

cookies::CookieDescriptor test_descriptor(cookies::CookieId id) {
  cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(id * 11 + 1));
  d.service_data = "Boost";
  return d;
}

TEST(Telemetry, VerifierViewMatchesAccessorsAndRegistry) {
  util::ManualClock clock(1'000'000 * util::kSecond);
  cookies::CookieVerifier verifier(clock);
  const auto descriptor = test_descriptor(1);
  verifier.add_descriptor(descriptor);
  cookies::CookieGenerator gen(descriptor, clock, 1);

  for (int i = 0; i < 3; ++i) verifier.verify(gen.generate());
  const cookies::Cookie replay = gen.generate();
  verifier.verify(replay);
  verifier.verify(replay);  // -> kReplayed
  cookies::Cookie unknown = gen.generate();
  unknown.cookie_id = 999;
  verifier.verify(unknown);  // -> kUnknownId
  cookies::Cookie forged = gen.generate();
  forged.signature[0] ^= 1;
  verifier.verify(forged);  // -> kBadSignature

  using cookies::VerifyStatus;
  const auto& s = verifier.stats();
  EXPECT_EQ(s.count(VerifyStatus::kOk), 4u);
  EXPECT_EQ(s.count(VerifyStatus::kReplayed), 1u);
  EXPECT_EQ(s.count(VerifyStatus::kUnknownId), 1u);
  EXPECT_EQ(s.count(VerifyStatus::kBadSignature), 1u);

  // The registry exports exactly the accessor's numbers (same cells).
  const Snapshot snap = Registry::global().snapshot();
  const LabelSet ok{{"status", "ok"}};
  EXPECT_EQ(snap.counter_total("nnn_verify_total", ok),
            s.count(VerifyStatus::kOk));
  EXPECT_EQ(snap.counter_total("nnn_verify_total",
                               LabelSet{{"status", "replayed"}}),
            s.count(VerifyStatus::kReplayed));
  EXPECT_EQ(snap.counter_total("nnn_verify_total",
                               LabelSet{{"status", "unknown-id"}}),
            s.count(VerifyStatus::kUnknownId));
  EXPECT_EQ(snap.counter_total("nnn_verify_total",
                               LabelSet{{"status", "bad-signature"}}),
            s.count(VerifyStatus::kBadSignature));
  EXPECT_EQ(snap.counter_total("nnn_verify_total"), s.total());
  // Descriptor gauge mirrors the table size.
  const telemetry::Family* gauges = snap.find("nnn_verifier_descriptors");
  ASSERT_NE(gauges, nullptr);
  ASSERT_EQ(gauges->samples.size(), 1u);
  EXPECT_EQ(gauges->samples[0].gauge_value, 1);
  // Batch latency histogram family is present alongside the counters.
  EXPECT_NE(snap.find("nnn_verify_batch_nanos"), nullptr);
}

TEST(Telemetry, FlowTableAndQosViewsMatchAccessors) {
  util::ManualClock clock(0);
  dataplane::FlowTable table(3, 10 * util::kSecond);
  net::FiveTuple t;
  t.src_port = 5;
  table.bind(net::FlowKey::from_tuple(t), clock.now());
  net::FiveTuple t2;
  t2.src_port = 6;
  table.bind(net::FlowKey::from_tuple(t2), clock.now());
  table.expire_idle(3600 * util::kSecond);

  const dataplane::FlowTableStats fs = table.stats();
  EXPECT_EQ(fs.flows_created, 2u);
  EXPECT_EQ(fs.flows_expired, 2u);

  dataplane::PriorityQueueSet queues(2, 250);
  net::Packet p;
  p.wire_size = 100;
  queues.enqueue(net::Packet(p), 0);
  queues.enqueue(net::Packet(p), 0);
  queues.enqueue(net::Packet(p), 0);  // dropped (over 250 B)
  queues.enqueue(net::Packet(p), 1);
  queues.dequeue();

  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter_total("nnn_flows_created_total"), fs.flows_created);
  EXPECT_EQ(snap.counter_total("nnn_flows_expired_total"), fs.flows_expired);

  const LabelSet band0{{"band", "0"}};
  const LabelSet band1{{"band", "1"}};
  EXPECT_EQ(snap.counter_total("nnn_qos_band_enqueued_total", band0),
            queues.stats(0).enqueued);
  EXPECT_EQ(snap.counter_total("nnn_qos_band_dropped_total", band0),
            queues.stats(0).dropped);
  EXPECT_EQ(snap.counter_total("nnn_qos_band_dequeued_total", band0),
            queues.stats(0).dequeued);
  EXPECT_EQ(snap.counter_total("nnn_qos_band_enqueued_total", band1),
            queues.stats(1).enqueued);
  EXPECT_EQ(queues.stats(0).dropped, 1u);
}

// ---------------------------------------------------------------------------
// Logger -> registry
// ---------------------------------------------------------------------------

TEST(Telemetry, LogEventsReachRegistryEvenWhenFiltered) {
  auto& logger = util::Logger::instance();
  logger.set_sink([](util::LogLevel, std::string_view) {});  // quiet

  const LabelSet warn{{"level", "warn"}};
  const LabelSet debug{{"level", "debug"}};
  const Snapshot before = Registry::global().snapshot();
  util::log_warn_tagged("telemetry-test", "fail-open {}", 1);
  // kDebug is below the default kWarn threshold: suppressed from the
  // sink but still counted (the silent-fail-open guarantee).
  util::log_debug("invisible");
  const Snapshot after = Registry::global().snapshot();

  EXPECT_EQ(after.counter_total("nnn_log_total", warn) -
                before.counter_total("nnn_log_total", warn),
            1u);
  EXPECT_EQ(after.counter_total("nnn_log_total", debug) -
                before.counter_total("nnn_log_total", debug),
            1u);
  EXPECT_EQ(after.counter_total(
                "nnn_log_component_total",
                LabelSet{{"component", "telemetry-test"}, {"level", "warn"}}),
            1u);
  logger.set_sink(nullptr);
}

// ---------------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------------

TEST(Telemetry, MetricsEndpointServesPrometheusAndJson) {
  util::ManualClock clock(0);
  server::CookieServer cookie_server(clock, 42);
  server::ServiceOffer offer;
  offer.name = "Boost";
  offer.service_data = "boost";
  cookie_server.add_service(offer);
  cookie_server.acquire("Boost", "alice");
  server::JsonApi api(cookie_server);

  const auto prom = api.handle_http("GET", "/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_EQ(prom.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(prom.body.find("# TYPE nnn_server_grants_total counter"),
            std::string::npos);
  EXPECT_NE(prom.body.find("nnn_server_grants_total 1"), std::string::npos);

  const auto as_json = api.handle_http("GET", "/metrics.json");
  EXPECT_EQ(as_json.status, 200);
  EXPECT_EQ(as_json.content_type, "application/json");
  const auto parsed = json::parse(as_json.body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->find("families"), nullptr);

  const auto posted =
      api.handle_http("POST", "/api", R"({"method":"list_services"})");
  EXPECT_EQ(posted.status, 200);
  const auto response = json::parse(posted.body);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->get_bool("ok"));

  EXPECT_EQ(api.handle_http("GET", "/nope").status, 404);

  // The JSON-RPC "metrics" method returns the same snapshot inline.
  const auto rpc = json::parse(api.handle_text(R"({"method":"metrics"})"));
  ASSERT_TRUE(rpc.has_value());
  EXPECT_TRUE(rpc->get_bool("ok"));
  ASSERT_NE(rpc->find("metrics"), nullptr);
  EXPECT_NE(rpc->find("metrics")->find("families"), nullptr);
}

}  // namespace
}  // namespace nnn
