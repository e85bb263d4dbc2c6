#include "netio/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>

namespace nnn::netio {

namespace {

uint32_t to_epoll(uint32_t interest) {
  uint32_t ev = EPOLLET;
  if (interest & EventLoop::kReadable) ev |= EPOLLIN | EPOLLRDHUP;
  if (interest & EventLoop::kWritable) ev |= EPOLLOUT;
  return ev;
}

uint32_t from_epoll(uint32_t events) {
  uint32_t out = 0;
  if (events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) out |= EventLoop::kReadable;
  if (events & EPOLLOUT) out |= EventLoop::kWritable;
  if (events & EPOLLERR) out |= EventLoop::kError;
  return out;
}

/// Heap order: the earliest deadline at the front.
struct LaterDeadline {
  template <typename Timer>
  bool operator()(const Timer& a, const Timer& b) const {
    return a.deadline > b.deadline;
  }
};

}  // namespace

EventLoop::EventLoop(const util::Clock& clock)
    : clock_(clock),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wakeup_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = wakeup_.get();
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev);
}

EventLoop::~EventLoop() = default;

bool EventLoop::add_fd(int fd, uint32_t interest, IoHandler handler) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

bool EventLoop::mod_fd(int fd, uint32_t interest) {
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::del_fd(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::add_timer(util::Timestamp deadline, TimerHandler handler) {
  timers_.push_back(Timer{deadline, std::move(handler)});
  std::push_heap(timers_.begin(), timers_.end(), LaterDeadline{});
}

void EventLoop::fire_timers() {
  const util::Timestamp now = clock_.now();
  // Take every due timer off the heap before running any: a timer that
  // a handler adds (or re-arms) goes onto the heap, so it waits for a
  // later poll instead of running inside this one.
  while (!timers_.empty() && timers_.front().deadline <= now) {
    std::pop_heap(timers_.begin(), timers_.end(), LaterDeadline{});
    due_.push_back(std::move(timers_.back()));
    timers_.pop_back();
  }
  for (Timer& timer : due_) {
    const util::Timestamp next = timer.handler(now);
    if (next > now) add_timer(next, std::move(timer.handler));
  }
  due_.clear();
}

int EventLoop::poll(util::Timestamp max_wait) {
  util::Timestamp wait = max_wait;
  if (!timers_.empty()) {
    // Wake by the earliest deadline, rounded up to epoll's whole
    // milliseconds so the wait does not end just short of it.
    const util::Timestamp until = timers_.front().deadline - clock_.now();
    const util::Timestamp ms =
        (until + util::kMillisecond - 1) / util::kMillisecond;
    wait = std::min(wait,
                    std::max<util::Timestamp>(0, ms * util::kMillisecond));
  }
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    if (!posted_.empty()) wait = 0;
  }
  std::array<epoll_event, 256> events;
  const int n = ::epoll_wait(epoll_.get(), events.data(),
                             static_cast<int>(events.size()),
                             static_cast<int>(wait / util::kMillisecond));
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeup_.get()) {
      drain_wakeup();
      continue;
    }
    // Look up per event: an earlier handler this batch may have closed
    // this fd (del_fd), in which case the event is stale and dropped.
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    ++dispatched;
    // Invoke a copy: the handler may del_fd its own fd (every close
    // path does), and erasing the map entry mid-call would destroy the
    // std::function whose operator() is on the stack.
    const IoHandler handler = it->second;
    handler(from_epoll(events[i].events));
  }
  fire_timers();
  run_posted();
  return dispatched;
}

void EventLoop::run() {
  while (!stop_.load(std::memory_order_acquire)) poll();
  // One final drain so tasks posted concurrently with stop() still run
  // on the loop thread before it exits.
  run_posted();
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_.get(), &one, sizeof(one));
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(task));
  }
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wakeup_.get(), &one, sizeof(one));
}

void EventLoop::drain_wakeup() {
  uint64_t value = 0;
  while (::read(wakeup_.get(), &value, sizeof(value)) > 0) {
  }
}

void EventLoop::run_posted() {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    running_.swap(posted_);
  }
  for (auto& task : running_) task();
  running_.clear();
}

}  // namespace nnn::netio
