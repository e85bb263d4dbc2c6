// AnyLink (§5, §4.6): the proxy-mode *slow* lane. A developer tests
// her app against emulated 2G / 3G / DSL links, selecting the profile
// per flow with a cookie instead of reconfiguring a testbed. The
// example runs the same 200 KB transfer through each profile on the
// simulator and prints the resulting completion times.
#include <cstdio>
#include <optional>

#include "boost_lane/anylink.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "net/http.h"
#include "sim/event_loop.h"
#include "sim/host.h"
#include "sim/link.h"
#include "sim/tcp.h"

namespace {

using namespace nnn;

/// Transfer 200 KB through a link shaped to `profile`; returns seconds.
double emulate_transfer(const boost_lane::LinkProfile& profile) {
  sim::EventLoop loop;
  sim::Host server(net::IpAddress::v4(198, 51, 100, 1), "origin");
  sim::Host device(net::IpAddress::v4(10, 0, 0, 2), "dev-phone");

  sim::Link down(loop,
                 {.rate_bps = profile.rate_bps,
                  .prop_delay = profile.extra_latency,
                  .bands = 1,
                  .band_capacity_bytes = 64 * 1024},
                 [&](net::Packet p) { device.receive(p); });
  sim::Link up(loop,
               {.rate_bps = profile.rate_bps,
                .prop_delay = profile.extra_latency,
                .bands = 1,
                .band_capacity_bytes = 64 * 1024},
               [&](net::Packet p) { server.receive(p); });
  server.set_uplink([&](net::Packet p) { down.send(std::move(p), 0); });
  device.set_uplink([&](net::Packet p) { up.send(std::move(p), 0); });

  net::FiveTuple flow;
  flow.src_ip = server.address();
  flow.dst_ip = device.address();
  flow.src_port = 443;
  flow.dst_port = 50000;

  std::optional<double> fct;
  sim::TcpSource source(loop, server, flow, 200 * 1024, {},
                        [&](util::Timestamp t) {
                          fct = static_cast<double>(t) / util::kSecond;
                        });
  sim::TcpSink sink(loop, device, flow, nullptr);
  server.register_handler(flow.reversed(), [&](const net::Packet& p) {
    source.on_ack(p);
  });
  device.register_handler(flow, [&](const net::Packet& p) {
    sink.on_data(p);
  });
  loop.at(0, [&] { source.start(); });
  loop.run_until(300 * util::kSecond);
  return fct.value_or(-1);
}

}  // namespace

int main() {
  using namespace nnn;
  util::SystemClock clock;

  // The AnyLink service: profiles selected by cookie service_data.
  cookies::CookieVerifier verifier(clock);
  boost_lane::AnyLinkProxy proxy(clock, verifier);
  proxy.add_profile("emulate-2g",
                    {"2G/EDGE", 120e3, 250 * util::kMillisecond});
  proxy.add_profile("emulate-3g",
                    {"3G/HSPA", 2e6, 60 * util::kMillisecond});
  proxy.add_profile("emulate-dsl",
                    {"DSL", 6e6, 20 * util::kMillisecond});

  std::printf("=== AnyLink: test your app on a slower link, selected "
              "per flow by cookie ===\n\n");
  std::printf("%-10s %12s %10s %14s\n", "profile", "rate", "latency",
              "200KB fetch(s)");
  uint16_t next_port = 50000;
  uint64_t next_seed = 21;
  for (const auto* service :
       {"emulate-2g", "emulate-3g", "emulate-dsl"}) {
    // The developer's client attaches the profile-selecting cookie.
    cookies::CookieDescriptor descriptor;
    descriptor.cookie_id = std::hash<std::string>{}(service) | 1;
    descriptor.key.assign(32, 0x33);
    descriptor.service_data = service;
    verifier.add_descriptor(descriptor);
    // One seed per client: the proxy's verifier keeps one use-once
    // cache for every descriptor, so two generators sharing a seed
    // would mint the same uuids and the second one would be a replay.
    cookies::CookieGenerator generator(descriptor, clock, next_seed++);

    net::Packet request;
    request.tuple.src_ip = net::IpAddress::v4(10, 0, 0, 2);
    request.tuple.dst_ip = net::IpAddress::v4(198, 51, 100, 1);
    request.tuple.src_port = next_port++;  // a fresh flow per run
    request.tuple.dst_port = 443;
    net::http::Request http("GET", "/bundle.js", "myapp.example");
    const std::string text = http.serialize();
    request.payload.assign(text.begin(), text.end());
    cookies::attach(request, generator.generate(),
                    cookies::Transport::kHttpHeader);

    const auto profile = proxy.process(request);
    if (!profile) {
      std::printf("%-10s cookie did not select a profile!\n", service);
      return 1;
    }
    const double fct = emulate_transfer(*profile);
    std::printf("%-10s %9.1f kb/s %7lld ms %14.2f\n",
                profile->name.c_str(), profile->rate_bps / 1e3,
                static_cast<long long>(profile->extra_latency /
                                       util::kMillisecond),
                fct);
  }
  std::printf("\nEach row used the same client code; only the cookie "
              "changed.\n");
  return 0;
}
