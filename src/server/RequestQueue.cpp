//===- server/RequestQueue.cpp --------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/RequestQueue.h"

#include "obs/Counters.h"
#include "obs/Metrics.h"

using namespace lsra::server;

namespace {

/// Publish the post-transition depth. The gauge tracks every enqueue and
/// dequeue (not just dispatch-time samples), so a scrape between
/// dispatches sees the true depth; the windowed histogram records the
/// depth each admission observed.
void noteQueueTransition(size_t Depth, bool Enqueued) {
  lsra::obs::CounterRegistry &CR = lsra::obs::CounterRegistry::global();
  if (!CR.enabled())
    return;
  CR.counter(Enqueued ? "server.enqueued" : "server.dequeued").add(1);
  CR.gauge("server.queue_depth").set(static_cast<int64_t>(Depth));
  if (Enqueued)
    CR.histogram("server.queue_depth.dist").record(Depth);
}

} // namespace

bool RequestQueue::tryPush(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    if (Closed || Tasks.size() >= Cap)
      return false;
    Tasks.push_back(std::move(Task));
    // Published under the queue lock so the gauge transitions in the same
    // order as the depth it reports.
    noteQueueTransition(Tasks.size(), /*Enqueued=*/true);
  }
  HasWork.notify_one();
  return true;
}

bool RequestQueue::pop(std::function<void()> &Task) {
  std::unique_lock<std::mutex> Lock(Mu);
  HasWork.wait(Lock, [this] { return Closed || !Tasks.empty(); });
  if (Tasks.empty())
    return false; // closed and fully drained
  Task = std::move(Tasks.front());
  Tasks.pop_front();
  noteQueueTransition(Tasks.size(), /*Enqueued=*/false);
  return true;
}

void RequestQueue::close() {
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Closed = true;
  }
  HasWork.notify_all();
}

unsigned RequestQueue::depth() const {
  std::unique_lock<std::mutex> Lock(Mu);
  return static_cast<unsigned>(Tasks.size());
}
