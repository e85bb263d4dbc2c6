// Connection scaling for the netio edge (ISSUE 6 acceptance): one
// TcpServer on one event-loop thread versus a client herd. Three
// phases:
//
//   storm   a small pool of persistent connections hammers heartbeat
//           polls back-to-back: per-request latency under contention
//           (mean / p50 / p99) and requests/sec.
//   scale   `conns` concurrent sync clients (default 10,000) connect
//           in waves, take a full snapshot each, then run heartbeat
//           rounds: p99 heartbeat latency at scale plus the server
//           process max-RSS, the bounded-memory evidence.
//   herd    every client is severed at once and reconnects into an
//           injected accept-stall window — the post-outage thundering
//           herd. Reported: wall time until the whole herd is
//           resynced, and whether a real SyncClient (running through
//           all three phases over a TcpSyncTransport) ever opened its
//           breaker. The acceptance bar is <= 1 open, ending closed.
//
// Process model: the scale/herd client herd forks into worker
// processes (the server side alone needs one fd per connection, and a
// 10k herd would need BOTH sides — 20k+ fds — in one process, past
// common RLIMIT_NOFILE hard caps). The parent keeps the server, the
// sidecar SyncClient, and the storm herd; children each drive
// conns/K raw sockets and report latencies over a pipe. Children are
// forked BEFORE the event-loop thread starts, so fork never races a
// running thread. Max-RSS is therefore the server process alone.
//
// The herd clients are deliberately NOT SyncClient instances: 10k of
// those would measure the client library. Each herd slot is a
// nonblocking socket, a read buffer, and a version counter — just
// enough protocol to sync and poll, so the server side is what is
// being measured.
//
// `--json BENCH_netio.json` emits one record per measurement; the CI
// smoke job gates on netio/scale/heartbeat_p99.
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "controlplane/descriptor_log.h"
#include "controlplane/messages.h"
#include "controlplane/sync_client.h"
#include "controlplane/sync_server.h"
#include "controlplane/table_mirror.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "net/wire.h"
#include "netio/event_loop.h"
#include "netio/socket.h"
#include "netio/sync_endpoint.h"
#include "netio/sync_transport.h"
#include "netio/transport.h"
#include "telemetry/metrics.h"
#include "util/clock.h"

namespace {

using nnn::util::kMillisecond;
using nnn::util::kSecond;
using nnn::util::Timestamp;

nnn::cookies::CookieDescriptor make_descriptor(nnn::cookies::CookieId id) {
  nnn::cookies::CookieDescriptor d;
  d.cookie_id = id;
  d.key.assign(32, static_cast<uint8_t>(0x40 + (id & 0x3f)));
  d.service_data = "Boost";
  return d;
}

double percentile(std::vector<double>& sorted_inout, double p) {
  if (sorted_inout.empty()) return 0;
  std::sort(sorted_inout.begin(), sorted_inout.end());
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_inout.size() - 1));
  return sorted_inout[idx];
}

double maxrss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// One herd slot: a nonblocking socket plus the minimum protocol state
/// to sync against the descriptor log and poll heartbeats.
struct HerdConn {
  int fd = -1;
  uint64_t client_id = 0;
  uint64_t version = 0;     // 0 = not yet synced
  bool connected = false;   // connect() resolved
  bool awaiting = false;    // request in flight
  Timestamp sent_at = 0;
  nnn::util::Bytes in;
  size_t consumed = 0;
  uint64_t reconnects = 0;
};

/// Raw-epoll client herd. Single-threaded: every method runs on the
/// caller's thread; the server's event loop is in another process or
/// thread.
class Herd {
 public:
  Herd(const nnn::util::Clock& clock, uint16_t port, size_t n,
       uint64_t id_base)
      : clock_(clock), port_(port), conns_(n) {
    epoll_fd_ = ::epoll_create1(0);
    for (size_t i = 0; i < n; ++i) conns_[i].client_id = id_base + i;
  }
  ~Herd() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  size_t size() const { return conns_.size(); }
  uint64_t total_reconnects() const {
    uint64_t n = 0;
    for (const auto& c : conns_) n += c.reconnects;
    return n;
  }

  /// Start (or restart) the connect of slots [first, first+count).
  void connect_range(size_t first, size_t count) {
    for (size_t i = first; i < first + count && i < conns_.size(); ++i) {
      open_slot(i);
    }
  }

  /// Sever every connection at once (the client side of an outage).
  void sever_all() {
    for (size_t i = 0; i < conns_.size(); ++i) {
      close_slot(i);
      conns_[i].version = 0;
    }
  }

  /// Queue a poll on every connected, idle slot. Latency samples for
  /// completed polls land in `latencies_us`.
  size_t send_polls() {
    size_t sent = 0;
    for (auto& c : conns_) {
      if (c.connected && !c.awaiting && c.fd >= 0) {
        send_request(c);
        ++sent;
      }
    }
    return sent;
  }

  /// One bounded epoll slice: resolve connects, read replies, kick the
  /// initial sync request on freshly connected slots.
  void pump(int timeout_ms) {
    for (size_t i = 0; i < conns_.size(); ++i) {
      auto& c = conns_[i];
      if (c.connected && !c.awaiting && c.version == 0 && c.fd >= 0) {
        send_request(c);  // initial snapshot pull
      }
    }
    epoll_event events[512];
    const int n = ::epoll_wait(epoll_fd_, events, 512, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const size_t idx = events[i].data.u32;
      auto& c = conns_[idx];
      if (c.fd < 0) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        open_slot(idx);  // severed (reset / shed): reconnect the slot
        continue;
      }
      if (!c.connected && (events[i].events & EPOLLOUT)) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          open_slot(idx);
          continue;
        }
        c.connected = true;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<uint32_t>(idx);
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        if (!read_slot(idx)) open_slot(idx);
      }
    }
  }

  size_t synced() const {
    size_t n = 0;
    for (const auto& c : conns_) n += c.version > 0 ? 1 : 0;
    return n;
  }
  size_t awaiting() const {
    size_t n = 0;
    for (const auto& c : conns_) n += c.awaiting ? 1 : 0;
    return n;
  }

  std::vector<double> latencies_us;

 private:
  void open_slot(size_t idx) {
    auto& c = conns_[idx];
    if (c.fd >= 0) {
      close_slot(idx);
      ++c.reconnects;
    }
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (c.fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int rc =
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLOUT | EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(idx);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  }

  void close_slot(size_t idx) {
    auto& c = conns_[idx];
    if (c.fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
    }
    c.connected = false;
    c.awaiting = false;
    c.in.clear();
    c.consumed = 0;
  }

  void send_request(HerdConn& c) {
    const nnn::util::Bytes request =
        nnn::controlplane::encode(nnn::controlplane::Message(
            nnn::controlplane::SyncRequest{c.client_id, c.version}));
    // 24 bytes: fits the socket buffer or the connection is hosed
    // anyway — a short write abandons the slot to reconnect.
    const ssize_t n =
        ::send(c.fd, request.data(), request.size(), MSG_NOSIGNAL);
    if (n != static_cast<ssize_t>(request.size())) return;
    c.awaiting = true;
    c.sent_at = clock_.now();
  }

  /// Drain the socket; decode every complete frame. False = dead.
  bool read_slot(size_t idx) {
    auto& c = conns_[idx];
    uint8_t buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    for (;;) {
      const nnn::util::BytesView pending(c.in.data() + c.consumed,
                                         c.in.size() - c.consumed);
      const auto probe = nnn::net::peek_sync_frame(pending);
      if (!probe) return false;  // poisoned stream
      if (!*probe || pending.size() < **probe) break;
      const auto message =
          nnn::controlplane::decode_message(pending.first(**probe));
      c.consumed += **probe;
      if (message) apply(c, *message);
    }
    if (c.consumed == c.in.size()) {
      c.in.clear();
      c.consumed = 0;
    }
    return true;
  }

  void apply(HerdConn& c, const nnn::controlplane::Message& message) {
    if (const auto* snap =
            std::get_if<nnn::controlplane::SnapshotMessage>(&message)) {
      c.version = snap->version;
    } else if (const auto* delta =
                   std::get_if<nnn::controlplane::DeltaMessage>(&message)) {
      c.version = delta->to_version;
    } else if (const auto* hb =
                   std::get_if<nnn::controlplane::HeartbeatMessage>(
                       &message)) {
      c.version = std::max(c.version, hb->version);
    } else {
      return;  // a stray request echo: not a reply
    }
    if (c.awaiting) {
      c.awaiting = false;
      latencies_us.push_back(static_cast<double>(clock_.now() - c.sent_at));
    }
  }

  const nnn::util::Clock& clock_;
  uint16_t port_;
  int epoll_fd_ = -1;
  std::vector<HerdConn> conns_;
};

bool pump_until(Herd& herd, const std::function<bool()>& done,
                Timestamp deadline, const nnn::util::Clock& clock,
                const std::function<void()>& tick) {
  while (clock.now() < deadline) {
    if (done()) return true;
    herd.pump(/*timeout_ms=*/10);
    if (tick) tick();
  }
  return done();
}

// --- Fork-based herd workers ----------------------------------------
//
// Pipe protocol, parent -> child: one command byte.
//   'S'  connect all slots in waves and sync each to a snapshot
//   'P'  one heartbeat poll round across all slots
//   'H'  sever everything, reconnect all at once, resync (the herd)
//   'Q'  exit
// Child -> parent, after each command: u64 word count, then that many
// 8-byte words (doubles or u64s, command-specific — see replies below).

bool write_all(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

[[noreturn]] void herd_worker(uint16_t port, size_t slots, uint64_t id_base,
                              int cmd_fd, int res_fd) {
  nnn::util::SystemClock clock;
  Herd herd(clock, port, slots, id_base);
  const auto reply = [&](const std::vector<uint64_t>& words) {
    const uint64_t n = words.size();
    if (!write_all(res_fd, &n, sizeof(n)) ||
        !write_all(res_fd, words.data(), n * sizeof(uint64_t))) {
      std::_Exit(2);
    }
  };
  for (;;) {
    char cmd = 0;
    if (!read_all(cmd_fd, &cmd, 1)) std::_Exit(2);
    switch (cmd) {
      case 'S': {
        const size_t wave = 512;
        for (size_t first = 0; first < slots; first += wave) {
          herd.connect_range(first, wave);
          pump_until(herd,
                     [&] {
                       return herd.synced() >=
                              std::min(first + wave, slots);
                     },
                     clock.now() + 10 * kSecond, clock, nullptr);
        }
        reply({herd.synced()});
        break;
      }
      case 'P': {
        herd.latencies_us.clear();
        herd.send_polls();
        pump_until(herd, [&] { return herd.awaiting() == 0; },
                   clock.now() + 30 * kSecond, clock, nullptr);
        std::vector<uint64_t> words(herd.latencies_us.size());
        std::memcpy(words.data(), herd.latencies_us.data(),
                    words.size() * sizeof(uint64_t));
        reply(words);
        break;
      }
      case 'H': {
        herd.sever_all();
        herd.connect_range(0, slots);  // everyone at once
        pump_until(herd, [&] { return herd.synced() == slots; },
                   clock.now() + 60 * kSecond, clock, nullptr);
        reply({herd.synced(), herd.total_reconnects()});
        break;
      }
      case 'Q':
      default:
        std::_Exit(cmd == 'Q' ? 0 : 2);
    }
  }
}

struct Worker {
  pid_t pid = -1;
  int cmd_fd = -1;  // parent writes commands here
  int res_fd = -1;  // parent reads replies here (nonblocking)
  size_t slots = 0;
};

/// Broadcast one command and gather every worker's word-vector reply,
/// ticking the sidecar SyncClient throughout so the parent's breaker
/// probe never starves while a phase runs.
bool run_phase(std::vector<Worker>& workers, char cmd,
               std::vector<std::vector<uint64_t>>& replies,
               const std::function<void()>& tick, Timestamp deadline,
               const nnn::util::Clock& clock) {
  for (auto& w : workers) {
    if (!write_all(w.cmd_fd, &cmd, 1)) return false;
  }
  replies.assign(workers.size(), {});
  struct State {
    std::vector<char> buf;
    size_t have = 0;
    bool header_done = false;
    uint64_t words = 0;
    bool done = false;
  };
  std::vector<State> states(workers.size());
  for (auto& s : states) s.buf.resize(sizeof(uint64_t));
  size_t remaining = workers.size();
  while (remaining > 0 && clock.now() < deadline) {
    bool progressed = false;
    for (size_t i = 0; i < workers.size(); ++i) {
      auto& s = states[i];
      if (s.done) continue;
      const ssize_t n = ::read(workers[i].res_fd, s.buf.data() + s.have,
                               s.buf.size() - s.have);
      if (n > 0) {
        s.have += static_cast<size_t>(n);
        progressed = true;
      } else if (n == 0) {
        return false;  // worker died
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        return false;
      }
      if (s.have < s.buf.size()) continue;
      if (!s.header_done) {
        std::memcpy(&s.words, s.buf.data(), sizeof(uint64_t));
        s.header_done = true;
        s.have = 0;
        s.buf.resize(s.words * sizeof(uint64_t));
        if (s.words != 0) continue;
      }
      replies[i].resize(s.words);
      std::memcpy(replies[i].data(), s.buf.data(),
                  s.words * sizeof(uint64_t));
      s.done = true;
      --remaining;
    }
    if (tick) tick();
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  return remaining == 0;
}

std::vector<double> as_doubles(const std::vector<std::vector<uint64_t>>& rs) {
  std::vector<double> out;
  for (const auto& r : rs) {
    const size_t base = out.size();
    out.resize(base + r.size());
    std::memcpy(out.data() + base, r.data(), r.size() * sizeof(uint64_t));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = nnn::bench::strip_json_flag(argc, argv);
  size_t conns = 10'000;
  size_t storm_conns = 64;
  size_t storm_rounds = 50;
  size_t scale_rounds = 3;
  size_t herd_workers = 4;
  if (argc > 1) conns = static_cast<size_t>(std::atoll(argv[1]));
  if (argc > 2) storm_rounds = static_cast<size_t>(std::atoll(argv[2]));
  std::signal(SIGPIPE, SIG_IGN);

  // The parent holds only the SERVER side of the herd (children hold
  // the client side), so it needs ~conns fds plus margin.
  const uint64_t fds = nnn::netio::raise_fd_limit(conns + 8192);
  if (fds < conns + 512) {
    const size_t fit =
        static_cast<size_t>(fds > 8192 ? fds - 4096 : 2048);
    std::fprintf(stderr,
                 "fd limit %llu too low for %zu conns; scaling down to "
                 "%zu\n",
                 static_cast<unsigned long long>(fds), conns, fit);
    conns = fit;
  }

  nnn::util::SystemClock clock;
  nnn::telemetry::Registry registry;
  nnn::fault::Injector injector(registry);

  nnn::controlplane::DescriptorLog log;
  for (nnn::cookies::CookieId id = 1; id <= 50; ++id) {
    log.append_add(make_descriptor(id));
  }
  nnn::controlplane::SyncServer server(log);

  nnn::netio::EventLoop loop(clock);
  nnn::netio::TcpServer::Config config;
  config.name = "bench";
  config.listener.backlog = 4096;
  config.max_connections = conns + 256;
  config.limits.idle_timeout = 60 * kSecond;
  config.limits.handshake_timeout = 30 * kSecond;
  auto tcp = nnn::netio::TcpServer::create(
      loop, config, nnn::netio::sync_protocol(server), &injector, registry);
  if (!tcp.has_value()) {
    std::fprintf(stderr, "listen failed: %s\n",
                 nnn::to_string(tcp.error()).c_str());
    return 1;
  }
  const uint16_t port = (*tcp)->port();

  // Fork the herd workers BEFORE any thread exists: fork() only
  // carries the calling thread into the child, so forking later could
  // strand a lock the loop thread holds.
  std::vector<Worker> workers(herd_workers);
  {
    size_t assigned = 0;
    for (size_t i = 0; i < herd_workers; ++i) {
      const size_t slots = i + 1 == herd_workers
                               ? conns - assigned
                               : conns / herd_workers;
      int cmd[2];
      int res[2];
      if (::pipe(cmd) != 0 || ::pipe(res) != 0) {
        std::perror("pipe");
        return 1;
      }
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (pid == 0) {
        ::close(cmd[1]);
        ::close(res[0]);
        herd_worker(port, slots, 10'000 + assigned, cmd[0], res[1]);
      }
      ::close(cmd[0]);
      ::close(res[1]);
      ::fcntl(res[0], F_SETFL, O_NONBLOCK);
      workers[i] = Worker{pid, cmd[1], res[0], slots};
      assigned += slots;
    }
  }

  std::thread loop_thread([&] { loop.run(); });

  // The sidecar: one real SyncClient over the socket transport, alive
  // through every phase. Its breaker is the ISSUE's flap probe.
  nnn::netio::TcpSyncTransport::Config tcfg;
  tcfg.port = port;
  tcfg.reconnect_interval = 50 * kMillisecond;
  nnn::netio::TcpSyncTransport transport(loop, tcfg);
  nnn::controlplane::TablePublisher tables;
  nnn::controlplane::SyncClient::Config ccfg;
  ccfg.client_id = 1;
  ccfg.poll_interval = 100 * kMillisecond;
  ccfg.response_timeout = 500 * kMillisecond;
  ccfg.backoff_base = 100 * kMillisecond;
  ccfg.backoff_max = kSecond;
  ccfg.breaker_failure_threshold = 5;
  ccfg.breaker_success_threshold = 2;
  nnn::controlplane::SyncClient sidecar(clock, tables, ccfg,
                                        transport.send_fn());
  sidecar.start();
  uint64_t breaker_opens = 0;
  auto breaker_prev = sidecar.breaker_state();
  const auto tick_sidecar = [&] {
    transport.poll(
        [&](nnn::util::BytesView d) { sidecar.on_datagram(d); });
    sidecar.tick();
    const auto state = sidecar.breaker_state();
    if (state == nnn::controlplane::BreakerState::kOpen &&
        breaker_prev != nnn::controlplane::BreakerState::kOpen) {
      ++breaker_opens;
    }
    breaker_prev = state;
  };

  std::vector<nnn::bench::BenchRecord> records;
  auto& metrics = (*tcp)->metrics();
  std::vector<std::vector<uint64_t>> replies;

  std::printf("=== netio connection scaling: epoll edge, loopback TCP ===\n");
  std::printf("50 descriptors in the log; server on one loop thread; "
              "%zu-conn herd split over %zu worker processes\n\n",
              conns, herd_workers);

  // --- Phase 1: request storm (parent-local herd) -------------------
  {
    Herd storm(clock, port, storm_conns, 100);
    storm.connect_range(0, storm_conns);
    if (!pump_until(
            storm, [&] { return storm.synced() == storm.size(); },
            clock.now() + 10 * kSecond, clock, tick_sidecar)) {
      std::fprintf(stderr, "storm herd failed to sync\n");
      return 1;
    }
    storm.latencies_us.clear();
    const Timestamp t0 = clock.now();
    for (size_t round = 0; round < storm_rounds; ++round) {
      storm.send_polls();
      if (!pump_until(storm, [&] { return storm.awaiting() == 0; },
                      clock.now() + 5 * kSecond, clock, tick_sidecar)) {
        std::fprintf(stderr, "storm round %zu stalled\n", round);
        return 1;
      }
    }
    const double elapsed_us = static_cast<double>(clock.now() - t0);
    auto lat = storm.latencies_us;
    const double total = static_cast<double>(lat.size());
    double sum = 0;
    for (const double v : lat) sum += v;
    const double mean_us = total > 0 ? sum / total : 0;
    const double p50_us = percentile(lat, 0.50);
    const double p99_us = percentile(lat, 0.99);
    const double rps = elapsed_us > 0 ? total / elapsed_us * 1e6 : 0;
    std::printf("--- storm: %zu conns x %zu rounds ---\n", storm_conns,
                storm_rounds);
    std::printf("%10.0f req/s   mean %7.1f us   p50 %7.1f us   p99 %7.1f "
                "us\n\n",
                rps, mean_us, p50_us, p99_us);
    nnn::bench::BenchRecord mean_rec;
    mean_rec.name = "netio/storm/heartbeat_mean";
    mean_rec.config["conns"] = static_cast<int64_t>(storm_conns);
    mean_rec.config["rounds"] = static_cast<int64_t>(storm_rounds);
    mean_rec.ns_per_op = mean_us * 1e3;
    mean_rec.ops_per_sec = rps;
    records.push_back(std::move(mean_rec));
    nnn::bench::BenchRecord p99_rec;
    p99_rec.name = "netio/storm/heartbeat_p99";
    p99_rec.config["conns"] = static_cast<int64_t>(storm_conns);
    p99_rec.config["rounds"] = static_cast<int64_t>(storm_rounds);
    p99_rec.ns_per_op = p99_us * 1e3;
    p99_rec.ops_per_sec = rps;
    records.push_back(std::move(p99_rec));
  }

  // --- Phase 2: concurrent-connection scale (forked herd) -----------
  {
    const double rss_before = maxrss_mb();
    const Timestamp t0 = clock.now();
    if (!run_phase(workers, 'S', replies, tick_sidecar,
                   clock.now() + 60 * kSecond, clock)) {
      std::fprintf(stderr, "scale sync phase failed\n");
      return 1;
    }
    uint64_t synced = 0;
    for (const auto& r : replies) synced += r.empty() ? 0 : r[0];
    const double sync_ms = static_cast<double>(clock.now() - t0) / 1e3;
    if (synced != conns) {
      std::fprintf(stderr, "scale: only %llu/%zu synced\n",
                   static_cast<unsigned long long>(synced), conns);
      return 1;
    }
    std::vector<double> lat;
    for (size_t round = 0; round < scale_rounds; ++round) {
      if (!run_phase(workers, 'P', replies, tick_sidecar,
                     clock.now() + 60 * kSecond, clock)) {
        std::fprintf(stderr, "scale heartbeat round %zu failed\n", round);
        return 1;
      }
      const auto batch = as_doubles(replies);
      lat.insert(lat.end(), batch.begin(), batch.end());
    }
    const double p99_us = percentile(lat, 0.99);
    const double p50_us = percentile(lat, 0.50);
    const double rss_after = maxrss_mb();
    std::printf("--- scale: %zu concurrent sync connections ---\n", conns);
    std::printf("all synced in %8.1f ms   heartbeat p50 %8.1f us   "
                "p99 %8.1f us\n",
                sync_ms, p50_us, p99_us);
    std::printf("server max RSS %8.1f MiB (%.1f before the herd; client "
                "sockets live in the worker processes)\n\n",
                rss_after, rss_before);
    nnn::bench::BenchRecord sync_rec;
    sync_rec.name = "netio/scale/sync_all";
    sync_rec.config["conns"] = static_cast<int64_t>(conns);
    sync_rec.config["sync_ms"] = sync_ms;
    sync_rec.config["maxrss_mb"] = rss_after;
    sync_rec.ns_per_op =
        conns > 0 ? sync_ms * 1e6 / static_cast<double>(conns) : 0;
    sync_rec.ops_per_sec =
        sync_ms > 0 ? static_cast<double>(conns) / sync_ms * 1e3 : 0;
    records.push_back(std::move(sync_rec));
    nnn::bench::BenchRecord p99_rec;
    p99_rec.name = "netio/scale/heartbeat_p99";
    p99_rec.config["conns"] = static_cast<int64_t>(conns);
    p99_rec.config["rounds"] = static_cast<int64_t>(scale_rounds);
    p99_rec.config["maxrss_mb"] = rss_after;
    p99_rec.ns_per_op = p99_us * 1e3;
    p99_rec.ops_per_sec = p99_us > 0 ? 1e6 / p99_us : 0;
    records.push_back(std::move(p99_rec));
  }

  // --- Phase 3: post-outage thundering herd -------------------------
  {
    // The outage: every client severed, and the listener stalled for
    // the first 200 ms of the recovery — the herd's SYNs pile into the
    // kernel backlog and land all at once when the stall lifts.
    nnn::fault::FaultPlan plan;
    nnn::fault::FaultEvent stall;
    stall.kind = nnn::fault::FaultKind::kAcceptStall;
    stall.start = clock.now() + 10 * kMillisecond;
    stall.duration = 200 * kMillisecond;
    plan.add(stall);
    injector.arm(plan, 1);

    const Timestamp t0 = clock.now();
    if (!run_phase(workers, 'H', replies, tick_sidecar,
                   clock.now() + 120 * kSecond, clock)) {
      std::fprintf(stderr, "herd phase failed\n");
      return 1;
    }
    const double herd_ms = static_cast<double>(clock.now() - t0) / 1e3;
    injector.disarm();
    uint64_t resynced = 0;
    uint64_t reconnects = 0;
    for (const auto& r : replies) {
      resynced += r.size() > 0 ? r[0] : 0;
      reconnects += r.size() > 1 ? r[1] : 0;
    }
    if (resynced != conns) {
      std::fprintf(stderr, "herd: only %llu/%zu resynced\n",
                   static_cast<unsigned long long>(resynced), conns);
      return 1;
    }
    // Give the sidecar a quiet beat to close a half-open breaker.
    const Timestamp settle = clock.now() + 2 * kSecond;
    while (clock.now() < settle &&
           sidecar.breaker_state() !=
               nnn::controlplane::BreakerState::kClosed) {
      tick_sidecar();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const bool breaker_closed =
        sidecar.breaker_state() == nnn::controlplane::BreakerState::kClosed;
    std::printf("--- herd: %zu clients reconnect through a 200 ms accept "
                "stall ---\n",
                conns);
    std::printf("full resync in %8.1f ms   client-observed reconnects "
                "%llu\n",
                herd_ms, static_cast<unsigned long long>(reconnects));
    std::printf("sidecar breaker: %llu open transition(s) across all "
                "phases, %s at exit (acceptance: <= 1, closed)\n\n",
                static_cast<unsigned long long>(breaker_opens),
                breaker_closed ? "closed" : "NOT closed");
    nnn::bench::BenchRecord rec;
    rec.name = "netio/herd/resync";
    rec.config["conns"] = static_cast<int64_t>(conns);
    rec.config["stall_ms"] = static_cast<int64_t>(200);
    rec.config["herd_ms"] = herd_ms;
    rec.config["breaker_opens"] = static_cast<int64_t>(breaker_opens);
    rec.config["breaker_closed"] = static_cast<int64_t>(breaker_closed);
    rec.ns_per_op =
        conns > 0 ? herd_ms * 1e6 / static_cast<double>(conns) : 0;
    rec.ops_per_sec =
        herd_ms > 0 ? static_cast<double>(conns) / herd_ms * 1e3 : 0;
    records.push_back(std::move(rec));
    if (breaker_opens > 1 || !breaker_closed) {
      std::fprintf(stderr, "breaker flapped: %llu opens, closed=%d\n",
                   static_cast<unsigned long long>(breaker_opens),
                   breaker_closed ? 1 : 0);
      return 1;
    }
  }

  std::printf("edge ledger: accepts=%llu shed=%llu closes=%llu "
              "frames=%llu resets=%llu\n",
              static_cast<unsigned long long>(metrics.accepts.value()),
              static_cast<unsigned long long>(metrics.accept_shed.value()),
              static_cast<unsigned long long>(metrics.closes.value()),
              static_cast<unsigned long long>(metrics.frames.value()),
              static_cast<unsigned long long>(metrics.resets.value()));

  for (auto& w : workers) {
    const char quit = 'Q';
    (void)write_all(w.cmd_fd, &quit, 1);
  }
  for (auto& w : workers) {
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    ::close(w.cmd_fd);
    ::close(w.res_fd);
  }

  loop.stop();
  loop_thread.join();

  if (!json_path.empty() &&
      !nnn::bench::write_bench_json(json_path, "ablation_netio", records)) {
    return 1;
  }
  return 0;
}
