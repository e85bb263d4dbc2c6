// netio subsystem tests: event-loop timers and plumbing, and real
// loopback TCP — sync convergence over sockets, HTTP
// keep-alive across split reads, poisoned-stream closes, accept-rate
// shedding, idle/handshake timeouts, and injected socket faults.
//
// Loopback tests run the EventLoop on a background thread against the
// SystemClock and poll with deadlines; every wait is bounded, nothing
// sleeps for a fixed "long enough".
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "controlplane/descriptor_log.h"
#include "controlplane/epoch.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/http.h"
#include "net/wire.h"
#include "netio/event_loop.h"
#include "netio/http_endpoint.h"
#include "netio/sync_endpoint.h"
#include "netio/sync_transport.h"
#include "netio/transport.h"
#include "server/cookie_server.h"
#include "server/json_api.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace nnn {
namespace {

using util::kMillisecond;
using util::kSecond;
using util::Timestamp;

// --- Event loop -----------------------------------------------------

TEST(EventLoop, PostedTasksRunOnLoopThread) {
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  std::atomic<int> ran{0};
  std::thread t([&] { loop.run(); });
  for (int i = 0; i < 10; ++i) {
    loop.post([&] { ran.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  t.join();
  EXPECT_EQ(ran.load(), 10);
}

TEST(EventLoop, TimersFire) {
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  std::atomic<bool> fired{false};
  loop.add_timer(clock.now() + 20 * kMillisecond, [&](Timestamp) {
    fired.store(true);
    return Timestamp{0};
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fired.load() && std::chrono::steady_clock::now() < deadline) {
    loop.poll(10 * kMillisecond);
  }
  EXPECT_TRUE(fired.load());
}

// Regression: a timer handler that calls add_timer mid-dispatch (the
// reconnect/retry shape) grows the loop's timer heap, which may
// reallocate — dispatch must not hold a reference into it across the
// call.
TEST(EventLoop, TimerHandlerMayAddTimersDuringDispatch) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  std::atomic<int> fired{0};
  std::atomic<int> children{0};
  loop.add_timer(clock.now() + 10 * kMillisecond, [&](Timestamp now) {
    ++fired;
    // Burst of insertions to force a reallocation while this handler
    // is the one being dispatched.
    for (int i = 0; i < 64; ++i) {
      loop.add_timer(now + 10 * kMillisecond, [&](Timestamp) {
        ++children;
        return Timestamp{0};
      });
    }
    return Timestamp{0};
  });
  clock.advance(15 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fired.load(), 1);
  clock.advance(15 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(children.load(), 64);
}

// --- Event-loop timers ----------------------------------------------
//
// Driven by a ManualClock and poll(0): each poll fires exactly the
// timers due at the clock's now, and no poll waits on epoll.

TEST(EventLoop, TimerFiresAtDeadlineAndIsDropped) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  std::vector<int> fired;
  loop.add_timer(25 * kMillisecond, [&](Timestamp) {
    fired.push_back(1);
    return Timestamp{0};
  });
  loop.add_timer(500 * kMillisecond, [&](Timestamp) {
    fired.push_back(2);
    return Timestamp{0};
  });
  clock.set(30 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fired, std::vector<int>{1});
  clock.set(600 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // Both were dropped: a poll far past every deadline fires nothing.
  clock.set(60 * kSecond);
  loop.poll(0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventLoop, LazyRearmFiresAtAuthoritativeDeadline) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  int calls = 0;
  int fires = 0;
  // The owner keeps moving the deadline: the handler reports the
  // authoritative one and the loop re-arms the timer there.
  Timestamp authoritative = 80 * kMillisecond;
  loop.add_timer(20 * kMillisecond, [&](Timestamp now) {
    ++calls;
    if (now >= authoritative) {
      ++fires;
      return Timestamp{0};
    }
    return authoritative;
  });
  clock.set(25 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(fires, 0);
  clock.set(50 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(calls, 1);  // re-armed at 80 ms, not due yet
  EXPECT_EQ(fires, 0);
  clock.set(90 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fires, 1);
  clock.set(60 * kSecond);
  loop.poll(0);
  EXPECT_EQ(calls, 2);  // dropped after it fired
  EXPECT_EQ(fires, 1);
}

TEST(EventLoop, DeadlineJustPastAPollFiresAtTheNextPoll) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  int fires = 0;
  loop.add_timer(18 * kMillisecond, [&](Timestamp now) {
    if (now >= 18 * kMillisecond) {
      ++fires;
      return Timestamp{0};
    }
    return Timestamp{18 * kMillisecond};
  });
  // Polls just short of the deadline leave the timer armed, and the
  // first poll at or after it fires it: nothing strands the timer
  // until some later revolution.
  clock.set(12 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fires, 0);
  clock.set(18 * kMillisecond - 1);
  loop.poll(0);
  EXPECT_EQ(fires, 0);
  clock.set(18 * kMillisecond);
  loop.poll(0);
  EXPECT_EQ(fires, 1);
  clock.set(60 * kSecond);
  loop.poll(0);
  EXPECT_EQ(fires, 1);
}

TEST(EventLoop, DeadlineSecondsAwayFiresExactlyOnce) {
  util::ManualClock clock;
  netio::EventLoop loop(clock);
  int fires = 0;
  loop.add_timer(1 * kSecond, [&](Timestamp now) {
    if (now >= 1 * kSecond) {
      ++fires;
      return Timestamp{0};
    }
    return Timestamp{1 * kSecond};
  });
  for (Timestamp t = 0; t <= 1100 * kMillisecond; t += 40 * kMillisecond) {
    clock.set(t);
    loop.poll(0);
    EXPECT_EQ(fires, t >= 1 * kSecond ? 1 : 0) << "t=" << t;
  }
}

// A timer added from inside a timer handler runs on a later poll, even
// when it is already due. Otherwise a handler that keeps adding a due
// retry would hold poll() in its timer pass and starve the loop's io.
TEST(EventLoop, DueTimerAddedDuringDispatchRunsOnALaterPoll) {
  util::ManualClock clock(100 * kMillisecond);
  netio::EventLoop loop(clock);
  int parents = 0;
  int children = 0;
  loop.add_timer(clock.now(), [&](Timestamp now) {
    ++parents;
    loop.add_timer(now, [&](Timestamp) {
      ++children;
      return Timestamp{0};
    });
    return Timestamp{0};
  });
  loop.poll(0);
  EXPECT_EQ(parents, 1);
  EXPECT_EQ(children, 0);
  loop.poll(0);
  EXPECT_EQ(children, 1);

  // A retry that re-adds itself due at `now` runs once per poll (the
  // cap only bounds a loop that would not return).
  clock.advance(50 * kMillisecond);
  int retries = 0;
  std::function<Timestamp(Timestamp)> retry = [&](Timestamp now) {
    if (++retries < 1000) loop.add_timer(now, retry);
    return Timestamp{0};
  };
  loop.add_timer(clock.now(), retry);
  loop.poll(0);
  EXPECT_EQ(retries, 1);
  loop.poll(0);
  EXPECT_EQ(retries, 2);
}

// --- Loopback helpers -----------------------------------------------

/// Blocking client socket with a receive timeout, for driving servers
/// byte-by-byte from the test thread.
class BlockingClient {
 public:
  explicit BlockingClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool send_all(const void* data, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (len > 0) {
      const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
      if (n <= 0) return false;
      p += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  }
  bool send_all(std::string_view s) { return send_all(s.data(), s.size()); }

  /// Read until `want` bytes arrive, the peer closes, or the timeout.
  std::string read_some(size_t want) {
    std::string out;
    char buf[4096];
    while (out.size() < want) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

  /// True when the peer has terminated the connection within the
  /// timeout — a clean FIN (recv == 0) or an RST (ECONNRESET, which an
  /// injected reset produces when the server closes with unread data).
  bool peer_closed() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET || errno == EPIPE;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

template <typename Pred>
bool wait_for(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// EventLoop on a background thread, started/joined RAII-style.
class LoopThread {
 public:
  explicit LoopThread(netio::EventLoop& loop) : loop_(loop) {
    thread_ = std::thread([this] { loop_.run(); });
  }
  ~LoopThread() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      loop_.stop();
      thread_.join();
    }
  }

 private:
  netio::EventLoop& loop_;
  std::thread thread_;
};

// --- Sync over real sockets -----------------------------------------

TEST(NetioSync, ClientConvergesOverTcp) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);

  controlplane::DescriptorLog log;
  for (uint64_t i = 1; i <= 20; ++i) {
    cookies::CookieDescriptor d;
    d.cookie_id = i;
    d.key.assign(32, static_cast<uint8_t>(i));
    log.append_add(std::move(d));
  }
  controlplane::SyncServer server(log);

  netio::TcpServer::Config config;
  config.name = "sync-test";
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  const uint16_t port = (*tcp)->port();

  netio::TcpSyncTransport::Config tconfig;
  tconfig.port = port;
  netio::TcpSyncTransport transport(loop, tconfig);

  LoopThread driver(loop);

  controlplane::TablePublisher tables;
  controlplane::SyncClient::Config cconfig;
  cconfig.client_id = 42;
  cconfig.poll_interval = 10 * kMillisecond;
  cconfig.response_timeout = 100 * kMillisecond;
  controlplane::SyncClient client(clock, tables, cconfig,
                                  transport.send_fn());
  client.start();
  const bool converged = wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return client.applied_version() == log.version();
  });
  EXPECT_TRUE(converged) << "applied=" << client.applied_version()
                         << " server=" << log.version();
  EXPECT_EQ(client.breaker_state(), controlplane::BreakerState::kClosed);

  // Live update propagates through the same socket.
  cookies::CookieDescriptor extra;
  extra.cookie_id = 99;
  extra.key.assign(32, 0x7f);
  log.append_add(std::move(extra));
  EXPECT_TRUE(wait_for([&] {
    transport.poll([&](util::BytesView d) { client.on_datagram(d); });
    client.tick();
    return client.applied_version() == log.version();
  }));

  const auto& metrics = (*tcp)->metrics();
  EXPECT_GE(metrics.accepts.value(), 1u);
  EXPECT_GE(metrics.frames.value(), 2u);

  driver.stop();
}

TEST(NetioSync, MalformedFrameClosesConnection) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";  // not sync framing
  ASSERT_TRUE(client.send_all(garbage, sizeof(garbage) - 1));
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().closes.value() >= 1u; }));
  driver.stop();
}

TEST(NetioSync, OversizedFrameLengthRejectedBeforeBuffering) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  // Valid magic/version, hostile length: 0xffffffff.
  const uint8_t evil[8] = {0x4e, 0x43, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff};
  ASSERT_TRUE(client.send_all(evil, sizeof(evil)));
  EXPECT_TRUE(client.peer_closed());
  driver.stop();
}

// --- HTTP endpoint ---------------------------------------------------

TEST(NetioHttp, KeepAliveAcrossSplitReads) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  server::CookieServer cookie_server(clock, 1, &log);
  server::JsonApi api(cookie_server, registry);
  auto tcp = netio::TcpServer::create(loop, {}, netio::http_protocol(api),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());

  // Request 1, delivered in three fragments with pauses: the endpoint
  // must buffer across reads.
  ASSERT_TRUE(client.send_all("GET /metr"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all("ics HTTP/1.1\r\nHost: lo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all("calhost\r\n\r\n"));

  std::string head = client.read_some(15);  // "HTTP/1.1 200 OK"
  ASSERT_GE(head.size(), 15u);
  EXPECT_EQ(head.substr(0, 15), "HTTP/1.1 200 OK");
  // Drain the rest of response 1 using its Content-Length.
  std::string rest = head;
  while (true) {
    const auto parsed = net::http::Response::parse(rest);
    if (parsed && parsed->header("Content-Length")) {
      const size_t cl = std::stoul(*parsed->header("Content-Length"));
      if (parsed->body.size() >= cl) break;
    }
    const std::string more = client.read_some(1);
    if (more.empty()) break;
    rest += more;
  }

  // Request 2 on the SAME connection (keep-alive): a POST with a split
  // body.
  const std::string body = R"({"method":"list_services"})";
  std::string post = "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n";
  ASSERT_TRUE(client.send_all(post));
  ASSERT_TRUE(client.send_all(body.substr(0, 5)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(client.send_all(body.substr(5)));
  const std::string second = client.read_some(15);
  ASSERT_GE(second.size(), 15u);
  EXPECT_EQ(second.substr(0, 15), "HTTP/1.1 200 OK");

  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().http_requests.value() >= 2u; }));
  // One connection served both requests.
  EXPECT_EQ((*tcp)->metrics().accepts.value(), 1u);
  driver.stop();
}

TEST(NetioHttp, BadRequestGets400AndClose) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  server::CookieServer cookie_server(clock, 1, &log);
  server::JsonApi api(cookie_server, registry);
  auto tcp = netio::TcpServer::create(loop, {}, netio::http_protocol(api),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("NOT AN HTTP LINE\r\n\r\n"));
  const std::string reply = client.read_some(12);
  ASSERT_GE(reply.size(), 12u);
  EXPECT_EQ(reply.substr(0, 12), "HTTP/1.1 400");
  EXPECT_TRUE(client.peer_closed());
  driver.stop();
}

// --- Admission control and timeouts ---------------------------------

TEST(NetioAdmission, ConnectionCeilingSheds) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  netio::TcpServer::Config config;
  config.max_connections = 2;
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (int i = 0; i < 5; ++i) {
    clients.push_back(std::make_unique<BlockingClient>((*tcp)->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  EXPECT_TRUE(wait_for([&] {
    const auto& m = (*tcp)->metrics();
    return m.accepts.value() + m.accept_shed.value() >= 5u;
  }));
  const auto& m = (*tcp)->metrics();
  EXPECT_EQ(m.accepts.value(), 2u);
  EXPECT_EQ(m.accept_shed.value(), 3u);
  driver.stop();
}

TEST(NetioAdmission, IdleTimeoutReclaims) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);
  netio::TcpServer::Config config;
  config.limits.handshake_timeout = 50 * kMillisecond;
  auto tcp = netio::TcpServer::create(loop, config,
                                      netio::sync_protocol(server),
                                      nullptr, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  // Say nothing: the handshake deadline must reclaim the connection.
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().handshake_timeouts.value() >= 1u; }));
  driver.stop();
}

// --- Injected socket faults -----------------------------------------

TEST(NetioFaults, InjectedResetKillsConnections) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);

  fault::Injector injector(registry);
  fault::FaultPlan plan;
  fault::FaultEvent reset;
  reset.kind = fault::FaultKind::kConnReset;
  reset.start = clock.now();
  reset.duration = 60 * kSecond;  // covers the whole test
  reset.magnitude = 1.0;          // every connection dies
  plan.add(reset);
  injector.arm(plan, 1);

  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());
  util::Bytes frame;
  net::append_sync_frame(frame, 1, util::BytesView());
  ASSERT_TRUE(client.send_all(frame.data(), frame.size()));
  EXPECT_TRUE(client.peer_closed());
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().resets.value() >= 1u; }));
  EXPECT_GE(injector.injected(fault::FaultKind::kConnReset), 1u);
  driver.stop();
}

TEST(NetioFaults, AcceptStallDefersAdmissionThenRecovers) {
  telemetry::Registry registry;
  util::SystemClock clock;
  netio::EventLoop loop(clock);
  controlplane::DescriptorLog log;
  controlplane::SyncServer server(log);

  fault::Injector injector(registry);
  fault::FaultPlan plan;
  fault::FaultEvent stall;
  stall.kind = fault::FaultKind::kAcceptStall;
  stall.start = 0;
  stall.duration = 200 * kMillisecond;
  const Timestamp t0 = clock.now();
  stall.start = t0;
  plan.add(stall);
  injector.arm(plan, 1);

  auto tcp = netio::TcpServer::create(loop, {}, netio::sync_protocol(server),
                                      &injector, registry);
  ASSERT_TRUE(tcp.has_value());
  LoopThread driver(loop);

  BlockingClient client((*tcp)->port());
  ASSERT_TRUE(client.connected());  // SYN queues in the kernel backlog
  // While the stall is active nothing is accepted...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ((*tcp)->metrics().accepts.value(), 0u);
  // ...and after it lifts, the backlog drains.
  EXPECT_TRUE(wait_for(
      [&] { return (*tcp)->metrics().accepts.value() >= 1u; }));
  driver.stop();
}

}  // namespace
}  // namespace nnn
