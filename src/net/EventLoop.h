//===- net/EventLoop.h - epoll event loop with timer wheel -----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The I/O core of the serving stack: a single-threaded, level-triggered
/// epoll loop owning every socket of a process (listener + all
/// connections), so one thread multiplexes tens of thousands of idle
/// clients instead of parking one blocking reader thread per connection.
///
/// Three primitives:
///   - fd watching: add()/mod()/del() register a callback invoked with the
///     ready epoll event mask (EPOLLIN/EPOLLOUT/...). Level-triggered on
///     purpose — a handler that drains only part of a buffer is re-invoked
///     on the next poll instead of deadlocking the connection;
///   - cross-thread tasks: post() enqueues a closure from any thread and
///     wakes the loop through an eventfd. All socket state is therefore
///     owned by the loop thread; worker threads never touch an fd, they
///     post completions (this is what makes the server TSan-clean without
///     per-connection locks);
///   - timers: a hashed timer wheel (fixed tick, 256 slots) drives request
///     deadlines. Insert/cancel are O(1); the wheel only needs the
///     millisecond-level resolution deadlines are specified in.
///
/// The loop is deliberately single-threaded: allocation work is what
/// scales with cores (the worker pool), while frame I/O is cheap enough
/// that one loop thread saturates far beyond the compile capacity. A
/// shared-nothing loop needs no locking discipline around connections.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_NET_EVENTLOOP_H
#define LSRA_NET_EVENTLOOP_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lsra {
namespace net {

class EventLoop {
public:
  /// Invoked with the ready epoll event mask for the fd.
  using FdCallback = std::function<void(uint32_t Events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop &) = delete;
  EventLoop &operator=(const EventLoop &) = delete;

  /// Create the epoll instance and the wakeup eventfd. False (with \p Err)
  /// when the kernel refuses either.
  bool init(std::string &Err);
  bool valid() const { return EpollFd >= 0; }

  /// Run until stop(). Must be called from exactly one thread; that thread
  /// becomes the loop thread for inLoopThread() and the callbacks.
  void run();

  /// Ask the loop to exit after the current iteration. Thread-safe,
  /// idempotent, wakes a blocked epoll_wait.
  void stop();

  /// Enqueue \p Fn to run on the loop thread (FIFO across post() calls
  /// from one thread). Thread-safe; wakes the loop. Tasks posted after
  /// stop() still run during the final drain iteration.
  void post(std::function<void()> Fn);

  /// Watch \p Fd for \p Events (EPOLLIN and friends; level-triggered).
  bool add(int Fd, uint32_t Events, FdCallback CB, std::string &Err);
  /// Change the watched event mask of a registered fd.
  bool mod(int Fd, uint32_t Events, std::string &Err);
  /// Stop watching \p Fd. Safe to call for an fd that was never added.
  void del(int Fd);
  /// Arm a one-shot timer firing at absolute \p DeadlineNs (steadyNowNs()
  /// time, rounded up to the wheel tick). Returns a cancellation id. Loop
  /// thread only.
  uint64_t addTimerAtNs(int64_t DeadlineNs, std::function<void()> Fn);
  /// Cancel a pending timer; no-op if it already fired. Loop thread only.
  void cancelTimer(uint64_t Id);

  /// Run \p Fn once at the end of every loop iteration, after the ready
  /// fds and posted tasks have been handled (the server's drain-progress
  /// check uses it). Set before run(), or from the loop thread.
  void setAfterPoll(std::function<void()> Fn) { AfterPoll = std::move(Fn); }

  bool inLoopThread() const {
    return std::this_thread::get_id() == LoopThreadId;
  }

  /// Loop iterations so far (observability; relaxed reads are fine).
  uint64_t iterations() const {
    return Iterations.load(std::memory_order_relaxed);
  }

  /// Timer-wheel tick, in nanoseconds (resolution of deadline firing).
  static constexpr int64_t TickNs = 2'000'000; // 2 ms

private:
  static constexpr unsigned WheelSlots = 256;

  struct Timer {
    uint64_t Id;
    int64_t DeadlineNs;
    std::function<void()> Fn;
  };

  void drainPosted();
  void advanceWheel(int64_t NowNs);
  int msUntilNextTimer(int64_t NowNs) const;

  int EpollFd = -1;
  int WakeFd = -1;
  std::atomic<bool> Stopping{false};
  std::thread::id LoopThreadId;
  std::atomic<uint64_t> Iterations{0};

  std::mutex PostMu;
  std::vector<std::function<void()>> Posted;

  std::unordered_map<int, FdCallback> FdHandlers; // loop thread only

  // Timer wheel: slot = (deadline / TickNs) % WheelSlots; entries whose
  // deadline lands in a future wheel revolution stay in the slot until
  // their turn. LastTickNs advances monotonically so a slow iteration
  // fires everything it skipped over.
  std::vector<std::vector<Timer>> Wheel{WheelSlots};
  std::unordered_map<uint64_t, unsigned> TimerSlots; ///< id -> wheel slot
  uint64_t NextTimerId = 1;
  size_t PendingTimers = 0;
  int64_t LastTickNs = 0;

  std::function<void()> AfterPoll;
};

} // namespace net
} // namespace lsra

#endif // LSRA_NET_EVENTLOOP_H
