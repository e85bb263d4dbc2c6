// One TCP connection on the event loop: buffered non-blocking io with
// a small lifecycle state machine, protocol-agnostic.
//
// The split of responsibilities:
//
//   Connection  owns the fd, the input buffer (partial reads
//               reassemble here), the write queue (short writes buffer
//               here), the idle/handshake deadlines, and the
//               backpressure caps.
//   Protocol    owns meaning: it is handed the buffered input after
//               every read burst and says how many bytes it consumed.
//               Sync framing and HTTP are both Protocols
//               (sync_endpoint.h / http_endpoint.h).
//
// Lifecycle: kHandshake (accepted, nothing complete yet) -> kOpen
// (first complete request) -> kDraining (graceful close pending flush)
// -> kClosed. The handshake deadline bounds how long an accepted
// socket may sit silent before proving it speaks the protocol — the
// classic slowloris defence; the idle deadline reclaims established
// connections whose peer went away without FIN (including the injected
// half-open fault). Both ride one lazy event-loop timer (see
// EventLoop::TimerHandler).
//
// Backpressure is a close, not a stall: a peer that outruns
// write_queue_cap (slow reader) or read_buffer_cap (frame larger than
// the server will buffer) is disconnected and counted, because a
// fail-open dataplane must shed control-plane load rather than queue
// it without bound (DESIGN §5e).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "fault/injector.h"
#include "netio/conn_state.h"
#include "netio/event_loop.h"
#include "netio/metrics.h"
#include "netio/socket.h"
#include "util/bytes.h"
#include "util/expected.h"

namespace nnn::netio {

class Connection;

/// What a connection speaks. Implementations keep per-connection parse
/// state as members (one Protocol instance per Connection).
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called after every read burst with ALL bytes buffered so far.
  /// Return how many leading bytes were consumed (0 = incomplete, keep
  /// buffering) or an Error to close the connection (the stream is
  /// poisoned — framing cannot resynchronize). May call
  /// Connection::send / mark_open / drain from inside.
  virtual Expected<size_t> on_data(Connection& conn,
                                   util::BytesView buffered) = 0;

  /// Peer sent FIN with `buffered` bytes still unconsumed. Default:
  /// nothing (the connection closes once the write queue drains).
  virtual void on_eof(Connection& conn, util::BytesView buffered) {
    (void)conn;
    (void)buffered;
  }
};

/// Why a connection closed — drives which counters move.
enum class CloseReason : uint8_t {
  kLocal = 0,      // server-side graceful close (drain complete, shutdown)
  kPeer,           // peer closed cleanly (FIN)
  kReset,          // ECONNRESET/EPIPE or injected kConnReset
  kIdleTimeout,
  kHandshakeTimeout,
  kBackpressure,   // read_buffer_cap or write_queue_cap exceeded
  kProtocolError,  // Protocol::on_data returned an Error
};

class Connection {
 public:
  struct Limits {
    util::Timestamp idle_timeout = 30 * util::kSecond;
    util::Timestamp handshake_timeout = 5 * util::kSecond;
    /// Max bytes buffered awaiting a complete request.
    size_t read_buffer_cap = 1u << 20;
    /// Max bytes queued for write before the peer is shed.
    size_t write_queue_cap = 4u << 20;
  };

  /// Takes ownership of `fd` (already non-blocking), registers it with
  /// `loop`, arms the handshake deadline. `on_close(id, reason)` fires
  /// exactly once, posted to the loop by close() so it runs after the
  /// connection's stack frames unwind; the owner may destroy the
  /// Connection from inside it. A Connection destroyed while still
  /// open (owner teardown) never fires it. `injector` may be null (no
  /// fault hooks).
  Connection(uint64_t id, Fd fd, EventLoop& loop, NetioMetrics& metrics,
             Limits limits, std::unique_ptr<Protocol> protocol,
             const fault::Injector* injector,
             std::function<void(uint64_t, CloseReason)> on_close);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // --- Protocol-facing surface ---

  /// Queue bytes for the peer; flushes as far as the socket allows and
  /// buffers the rest. Closes (kBackpressure) if the queue would
  /// exceed write_queue_cap.
  void send(util::BytesView bytes);

  /// First complete request observed: kHandshake -> kOpen, handshake
  /// deadline retired in favor of the idle deadline.
  void mark_open();

  /// Graceful close: flush the write queue, then close(kLocal). No
  /// further reads are processed.
  void drain();

  void close(CloseReason reason);

  uint64_t id() const { return id_; }
  ConnState state() const { return state_; }
  bool closed() const { return state_ == ConnState::kClosed; }
  EventLoop& loop() { return loop_; }
  NetioMetrics& metrics() { return metrics_; }
  size_t buffered_in() const { return inbuf_.size(); }
  size_t queued_out() const { return outbuf_.size() - out_sent_; }

 private:
  void on_events(uint32_t events);
  /// Drain the socket to EAGAIN into inbuf_, then run the protocol
  /// over the buffered prefix.
  void handle_readable();
  void run_protocol();
  /// Push outbuf_ to the socket until EAGAIN or empty.
  void flush();
  void set_state(ConnState next);
  util::Timestamp deadline() const;
  util::Timestamp on_timer(util::Timestamp now);

  const uint64_t id_;
  Fd fd_;
  EventLoop& loop_;
  NetioMetrics& metrics_;
  const Limits limits_;
  std::unique_ptr<Protocol> protocol_;
  const fault::Injector* injector_;
  std::function<void(uint64_t, CloseReason)> on_close_;

  ConnState state_ = ConnState::kHandshake;
  util::Bytes inbuf_;
  util::Bytes outbuf_;
  size_t out_sent_ = 0;  // flushed prefix of outbuf_
  util::Timestamp last_activity_;
  util::Timestamp handshake_deadline_;
  bool peer_eof_ = false;
  bool in_protocol_ = false;  // re-entrancy guard for close-from-on_data
  /// Outlives `this` in the loop's timer lambda: the connection is
  /// destroyed on close but its (lazy) timer may fire later.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace nnn::netio
