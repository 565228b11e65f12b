//===- net/EventLoop.cpp - epoll event loop with timer wheel --------------===//

#include "net/EventLoop.h"

#include "support/Timer.h"

#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace lsra {
namespace net {

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  if (WakeFd >= 0)
    ::close(WakeFd);
  if (EpollFd >= 0)
    ::close(EpollFd);
}

bool EventLoop::init(std::string &Err) {
  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (EpollFd < 0) {
    Err = "epoll_create1: " + std::string(std::strerror(errno));
    return false;
  }
  WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (WakeFd < 0) {
    Err = "eventfd: " + std::string(std::strerror(errno));
    ::close(EpollFd);
    EpollFd = -1;
    return false;
  }
  // The wakeup fd is registered like any other: its handler drains the
  // counter; the posted tasks themselves run in drainPosted().
  struct epoll_event Ev;
  std::memset(&Ev, 0, sizeof(Ev));
  Ev.events = EPOLLIN;
  Ev.data.fd = WakeFd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev) != 0) {
    Err = "epoll_ctl(wakefd): " + std::string(std::strerror(errno));
    ::close(WakeFd);
    ::close(EpollFd);
    WakeFd = EpollFd = -1;
    return false;
  }
  LastTickNs = steadyNowNs();
  return true;
}

bool EventLoop::add(int Fd, uint32_t Events, FdCallback CB, std::string &Err) {
  struct epoll_event Ev;
  std::memset(&Ev, 0, sizeof(Ev));
  Ev.events = Events;
  Ev.data.fd = Fd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) != 0) {
    Err = "epoll_ctl(add): " + std::string(std::strerror(errno));
    return false;
  }
  FdHandlers[Fd] = std::move(CB);
  return true;
}

bool EventLoop::mod(int Fd, uint32_t Events, std::string &Err) {
  struct epoll_event Ev;
  std::memset(&Ev, 0, sizeof(Ev));
  Ev.events = Events;
  Ev.data.fd = Fd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev) != 0) {
    Err = "epoll_ctl(mod): " + std::string(std::strerror(errno));
    return false;
  }
  return true;
}

void EventLoop::del(int Fd) {
  // Ignore ENOENT: closing an fd that was concurrently deregistered (or
  // never registered) is not an error worth surfacing.
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
  FdHandlers.erase(Fd);
}

void EventLoop::post(std::function<void()> Fn) {
  {
    std::lock_guard<std::mutex> L(PostMu);
    Posted.push_back(std::move(Fn));
  }
  uint64_t One = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  ssize_t R = ::write(WakeFd, &One, sizeof(One));
  (void)R;
}

void EventLoop::stop() {
  Stopping.store(true, std::memory_order_release);
  uint64_t One = 1;
  ssize_t R = ::write(WakeFd, &One, sizeof(One));
  (void)R;
}

void EventLoop::drainPosted() {
  std::vector<std::function<void()>> Batch;
  {
    std::lock_guard<std::mutex> L(PostMu);
    Batch.swap(Posted);
  }
  for (auto &Fn : Batch)
    Fn();
}

uint64_t EventLoop::addTimerAtNs(int64_t DeadlineNs, std::function<void()> Fn) {
  uint64_t Id = NextTimerId++;
  // Round up so a timer never fires before its deadline.
  int64_t Ticks = (DeadlineNs + TickNs - 1) / TickNs;
  unsigned Slot = static_cast<unsigned>(Ticks % WheelSlots);
  Wheel[Slot].push_back(Timer{Id, Ticks * TickNs, std::move(Fn)});
  TimerSlots[Id] = Slot;
  ++PendingTimers;
  return Id;
}

void EventLoop::cancelTimer(uint64_t Id) {
  auto SlotIt = TimerSlots.find(Id);
  if (SlotIt == TimerSlots.end())
    return; // already fired or cancelled
  auto &Slot = Wheel[SlotIt->second];
  TimerSlots.erase(SlotIt);
  for (auto It = Slot.begin(); It != Slot.end(); ++It) {
    if (It->Id == Id) {
      Slot.erase(It);
      --PendingTimers;
      return;
    }
  }
}

void EventLoop::advanceWheel(int64_t NowNs) {
  if (PendingTimers == 0) {
    LastTickNs = NowNs;
    return;
  }
  int64_t FromTick = LastTickNs / TickNs;
  int64_t ToTick = NowNs / TickNs;
  if (ToTick <= FromTick)
    return;
  // Walk at most one full revolution: beyond that every slot has already
  // been visited once and due timers were collected.
  int64_t Steps = ToTick - FromTick;
  if (Steps > static_cast<int64_t>(WheelSlots))
    Steps = WheelSlots;
  std::vector<Timer> Due;
  for (int64_t T = 1; T <= Steps; ++T) {
    unsigned Slot = static_cast<unsigned>((FromTick + T) % WheelSlots);
    auto &Entries = Wheel[Slot];
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (It->DeadlineNs <= NowNs) {
        TimerSlots.erase(It->Id);
        Due.push_back(std::move(*It));
        It = Entries.erase(It);
        --PendingTimers;
      } else {
        ++It;
      }
    }
  }
  LastTickNs = NowNs;
  for (auto &T : Due)
    T.Fn();
}

int EventLoop::msUntilNextTimer(int64_t NowNs) const {
  if (PendingTimers == 0)
    return 200; // idle poll granularity; wakeups interrupt it anyway
  // With timers pending, wake at wheel-tick granularity; scanning all
  // slots for the exact minimum is not worth it at a 2 ms tick.
  int64_t NextTickNs = (NowNs / TickNs + 1) * TickNs;
  int64_t Ms = (NextTickNs - NowNs + 999'999) / 1'000'000;
  return Ms < 1 ? 1 : static_cast<int>(Ms);
}

void EventLoop::run() {
  LoopThreadId = std::this_thread::get_id();
  constexpr int MaxEvents = 256;
  struct epoll_event Events[MaxEvents];
  while (true) {
    int64_t Now = steadyNowNs();
    int TimeoutMs = msUntilNextTimer(Now);
    bool HavePosted;
    {
      std::lock_guard<std::mutex> L(PostMu);
      HavePosted = !Posted.empty();
    }
    if (HavePosted || Stopping.load(std::memory_order_acquire))
      TimeoutMs = 0;
    int N = ::epoll_wait(EpollFd, Events, MaxEvents, TimeoutMs);
    if (N < 0 && errno != EINTR)
      break;
    Iterations.fetch_add(1, std::memory_order_relaxed);
    for (int I = 0; I < N; ++I) {
      int Fd = Events[I].data.fd;
      if (Fd == WakeFd) {
        uint64_t Buf;
        while (::read(WakeFd, &Buf, sizeof(Buf)) > 0) {
        }
        continue;
      }
      auto It = FdHandlers.find(Fd);
      // A handler earlier in this batch may have del()ed this fd.
      if (It != FdHandlers.end())
        It->second(Events[I].events);
    }
    drainPosted();
    advanceWheel(steadyNowNs());
    if (AfterPoll)
      AfterPoll();
    if (Stopping.load(std::memory_order_acquire)) {
      // Final drain: run tasks posted between the check above and exit.
      drainPosted();
      break;
    }
  }
}

} // namespace net
} // namespace lsra
