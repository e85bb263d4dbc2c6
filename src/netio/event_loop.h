// Edge-triggered epoll event loop — the netio subsystem's scheduler.
//
// One loop, one thread, everything non-blocking: listeners, server
// connections, and client transports all register fds here and get
// called back when the kernel has work for them. Edge-triggered
// (EPOLLET) is deliberate: level-triggered epoll re-reports a readable
// fd on every wait, which at 10k mostly-idle sync connections turns
// the ready list into a scan; edge-triggered reports each fd once per
// state change, so the loop's cost tracks *activity*, not population.
// The contract that buys this is the usual one — every handler must
// drain its fd to EAGAIN before returning.
//
// Timers (idle/handshake timeouts, retry timers) sit on a lazy
// min-heap; cross-thread work arrives through post(), which enqueues a
// task and kicks an eventfd so a parked epoll_wait wakes immediately.
// All other methods are loop-thread-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netio/socket.h"
#include "util/clock.h"

namespace nnn::netio {

class EventLoop {
 public:
  /// Bitmask passed to io handlers (mirrors EPOLLIN/EPOLLOUT/EPOLLERR
  /// without leaking <sys/epoll.h> into every include site).
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  using IoHandler = std::function<void(uint32_t events)>;
  /// Timer callback, run by poll() once the deadline has passed, with
  /// that poll's `now`. It returns the timer's authoritative deadline:
  /// a later one re-arms the timer, 0 or one <= now drops it. This is
  /// the lazy re-arm: an owner that moves its deadline forward (a
  /// connection's idle timeout, on every request) touches no timer;
  /// when the stale deadline fires, one heap push re-arms it.
  using TimerHandler = std::function<util::Timestamp(util::Timestamp now)>;

  /// `clock` must outlive the loop and be monotonic (SystemClock in
  /// production; tests may drive a ManualClock through poll()).
  explicit EventLoop(const util::Clock& clock);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- fd registration (loop thread) ---

  /// Watch `fd` edge-triggered for `interest` (kReadable|kWritable).
  /// The handler stays installed until del_fd; re-register interest
  /// with mod_fd.
  bool add_fd(int fd, uint32_t interest, IoHandler handler);
  bool mod_fd(int fd, uint32_t interest);
  void del_fd(int fd);

  // --- timers (loop thread) ---

  /// Add a timer. The handler is invoked from poll(); re-arm lazily by
  /// returning the new deadline. A timer added from inside a timer
  /// handler runs on a later poll(), even when it is already due.
  void add_timer(util::Timestamp deadline, TimerHandler handler);

  // --- driving ---

  /// One iteration: wait for io (at most `max_wait`, and while timers
  /// are live no later than the earliest deadline, rounded up to a
  /// whole millisecond), dispatch handlers, fire the timers due at the
  /// clock's `now`, run posted tasks. Returns the number of io events
  /// dispatched.
  int poll(util::Timestamp max_wait = 50 * util::kMillisecond);

  /// poll() until stop(). The conventional server shape is one thread
  /// parked here.
  void run();
  /// Ask run() to return; safe from any thread.
  void stop();

  /// Enqueue `task` for the loop thread and wake it. Safe from any
  /// thread — the one cross-thread door into the loop.
  void post(std::function<void()> task);

  const util::Clock& clock() const { return clock_; }
  util::Timestamp now() const { return clock_.now(); }
  size_t fd_count() const { return handlers_.size(); }

 private:
  struct Timer {
    util::Timestamp deadline;
    TimerHandler handler;
  };

  void drain_wakeup();
  void run_posted();
  void fire_timers();

  const util::Clock& clock_;
  Fd epoll_;
  Fd wakeup_;  // eventfd
  std::unordered_map<int, IoHandler> handlers_;
  /// Min-heap on deadline (std::push_heap/pop_heap).
  std::vector<Timer> timers_;
  /// Scratch for one poll's due timers; handlers run out of it.
  std::vector<Timer> due_;
  std::atomic<bool> stop_{false};
  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  std::vector<std::function<void()>> running_;
};

}  // namespace nnn::netio
