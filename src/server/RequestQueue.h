//===- server/RequestQueue.h - Bounded admission queue ---------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server's admission control: a bounded MPMC queue of request tasks
/// between the event loop (producer) and compile workers (consumers).
/// The bound is the load-shedding mechanism — tryPush() fails immediately
/// when the queue is full, and the admission path answers with a typed
/// Rejected frame instead of letting latency grow without limit (the
/// 503 analogue).
///
/// Each task is one admitted request and takes one slot, so capacity,
/// depth, and the enqueued/dequeued counters all count requests.
///
/// close() starts a graceful drain: producers are refused from then on,
/// consumers keep draining what was already admitted, and pop() returns
/// false only once the queue is both closed and empty. That gives the
/// shutdown ordering the server wants for free: every admitted request is
/// answered, every unadmitted one is refused.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_REQUESTQUEUE_H
#define LSRA_SERVER_REQUESTQUEUE_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

namespace lsra {
namespace server {

class RequestQueue {
public:
  explicit RequestQueue(unsigned Capacity)
      : Cap(Capacity ? Capacity : 1) {}

  /// Admit \p Task. False when the queue is full or closed — the caller
  /// owes its request a Rejected/ShuttingDown response.
  bool tryPush(std::function<void()> Task);

  /// Block until a task is available or the drain completes. False means
  /// closed-and-empty: the consumer should exit.
  bool pop(std::function<void()> &Task);

  /// Refuse new work; wake consumers so they can drain and exit.
  void close();

  /// Queued requests.
  unsigned depth() const;
  unsigned capacity() const { return Cap; }

private:
  const unsigned Cap;
  mutable std::mutex Mu;
  std::condition_variable HasWork;
  std::deque<std::function<void()>> Tasks;
  bool Closed = false;
};

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_REQUESTQUEUE_H
