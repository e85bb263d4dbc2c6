// Quickstart: the network-cookie mechanism end to end in ~80 lines.
//
//   1. the network (ISP) runs a cookie server advertising a "Boost"
//      fast lane and a dataplane verifier;
//   2. the user acquires a cookie descriptor over the JSON API;
//   3. the user's agent mints a cookie and attaches it to an outgoing
//      HTTP request (X-Network-Cookie header);
//   4. the middlebox on the path finds the cookie, verifies it
//      (signature, freshness, use-once), and maps the flow to the
//      fast lane;
//   5. a replayed cookie is rejected, and revoking the descriptor
//      stops the service.
#include <cstdio>

#include "controlplane/local_subscriber.h"
#include "cookies/generator.h"
#include "cookies/transport.h"
#include "dataplane/middlebox.h"
#include "net/http.h"
#include "server/cookie_server.h"
#include "server/json_api.h"
#include "util/clock.h"

int main() {
  using namespace nnn;
  util::SystemClock clock;

  // --- 1. the network side ---
  // The server publishes grants/revocations into a descriptor log; the
  // verifier subscribes (here in-process; remote middleboxes run a
  // controlplane::SyncClient over the wire instead).
  cookies::CookieVerifier verifier(clock);
  controlplane::DescriptorLog descriptor_log;
  server::CookieServer cookie_server(clock, /*rng_seed=*/2024,
                                     &descriptor_log);
  controlplane::LocalSubscriber subscriber(descriptor_log, verifier);
  server::ServiceOffer boost;
  boost.name = "Boost";
  boost.description = "fast lane for traffic you choose";
  boost.service_data = "Boost";
  boost.descriptor_lifetime = 3600LL * util::kSecond;
  cookie_server.add_service(boost);
  server::JsonApi api(cookie_server);

  dataplane::ServiceRegistry registry;
  registry.bind("Boost", dataplane::PriorityAction{0});
  dataplane::Middlebox middlebox(clock, verifier, registry);

  // --- 2. the user acquires a descriptor (JSON control plane) ---
  const std::string response = api.handle_text(
      R"({"method":"acquire","service":"Boost","user":"quickstart"})");
  std::printf("acquire response: %s\n\n", response.c_str());
  const auto descriptor = cookies::CookieDescriptor::from_json(
      *json::parse(response)->find("descriptor"));

  // --- 3. mint a cookie, attach it to a request ---
  cookies::CookieGenerator generator(*descriptor, clock, /*seed=*/7);
  const cookies::Cookie cookie = generator.generate();
  std::printf("cookie: id=%llu uuid=%s ts=%llu\n",
              static_cast<unsigned long long>(cookie.cookie_id),
              cookie.uuid.to_string().c_str(),
              static_cast<unsigned long long>(cookie.timestamp));

  net::Packet request;
  request.tuple.src_ip = net::IpAddress::v4(192, 168, 1, 10);
  request.tuple.dst_ip = net::IpAddress::v4(151, 101, 0, 10);
  request.tuple.src_port = 41000;
  request.tuple.dst_port = 80;
  net::http::Request http("GET", "/video", "myvideosite.example");
  const std::string text = http.serialize();
  request.payload.assign(text.begin(), text.end());
  cookies::attach(request, cookie, cookies::Transport::kHttpHeader);

  // --- 4. the middlebox maps the flow ---
  const auto verdict = middlebox.process(request);
  std::printf("verdict: %s (service '%s')\n",
              verdict.action ? "fast lane" : "best effort",
              registry.name(verdict.service).c_str());

  net::Packet data;
  data.tuple = request.tuple;
  data.wire_size = 1400;
  std::printf("next packet of the flow: %s\n",
              middlebox.process(data).action ? "fast lane"
                                             : "best effort");

  // --- 5. replay protection and revocation ---
  net::Packet replay = request;
  replay.tuple.src_port = 41001;  // an eavesdropper's own flow
  const auto replay_verdict = middlebox.process(replay);
  std::printf("replayed cookie on another flow: %s (%s)\n",
              replay_verdict.action ? "fast lane" : "best effort",
              std::string(to_string(*replay_verdict.verify_status)).c_str());

  cookie_server.revoke(descriptor->cookie_id, "user opted out");
  net::Packet after_revoke;
  after_revoke.tuple = request.tuple;
  after_revoke.tuple.src_port = 41002;
  after_revoke.payload.assign(text.begin(), text.end());
  cookies::attach(after_revoke, generator.generate(),
                  cookies::Transport::kHttpHeader);
  const auto revoked_verdict = middlebox.process(after_revoke);
  std::printf("after revocation: %s (%s)\n",
              revoked_verdict.action ? "fast lane" : "best effort",
              std::string(to_string(*revoked_verdict.verify_status)).c_str());

  std::printf("\naudit log:\n%s\n",
              cookie_server.audit_log().to_json().dump_pretty().c_str());
  return 0;
}
