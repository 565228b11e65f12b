//===- tests/threadpool_test.cpp - Worker-pool unit tests -----------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The pool behaviours the compile server leans on: task exceptions
// propagate to the waiter instead of vanishing on a worker thread, and the
// queue-depth probes used for admission control report sane values.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace lsra;

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&] { Ran++; });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPool, ExceptionPropagatesToWaiter) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  Pool.submit([&] { Ran++; });
  Pool.submit([] { throw std::runtime_error("task failed"); });
  Pool.submit([&] { Ran++; });
  try {
    Pool.wait();
    FAIL() << "wait() should rethrow the task exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task failed");
  }
  // The pool stays usable after an exception: the error was consumed.
  Pool.submit([&] { Ran++; });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Ran.load(), 3);
}

TEST(ThreadPool, OnlyFirstExceptionIsRethrown) {
  ThreadPool Pool(1); // single worker: deterministic task order
  Pool.submit([] { throw std::runtime_error("first"); });
  Pool.submit([] { throw std::logic_error("second"); });
  try {
    Pool.wait();
    FAIL() << "wait() should rethrow";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "first");
  } catch (...) {
    FAIL() << "wrong exception type surfaced";
  }
}

TEST(ThreadPool, QueueDepthAndOutstanding) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.outstanding(), 0u);

  // Block the lone worker, then pile tasks behind it.
  std::mutex Mu;
  std::condition_variable Cv;
  bool Release = false, Started = false;
  Pool.submit([&] {
    std::unique_lock<std::mutex> L(Mu);
    Started = true;
    Cv.notify_all();
    Cv.wait(L, [&] { return Release; });
  });
  {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Started; });
  }
  // Worker is running (not queued) the blocker.
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.outstanding(), 1u);

  Pool.submit([] {});
  Pool.submit([] {});
  EXPECT_EQ(Pool.queueDepth(), 2u);
  EXPECT_EQ(Pool.outstanding(), 3u);

  {
    std::lock_guard<std::mutex> L(Mu);
    Release = true;
  }
  Cv.notify_all();
  Pool.wait();
  EXPECT_EQ(Pool.queueDepth(), 0u);
  EXPECT_EQ(Pool.outstanding(), 0u);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> Hits(257);
  parallelFor(257, 4, [&](unsigned I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelForChunked, CoversEveryIndexOnce) {
  // N deliberately not a multiple of the chunk size: the last chunk is
  // short.
  std::vector<std::atomic<int>> Hits(1003);
  parallelForChunked(1003, 4, 16, [&](unsigned I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelForChunked, DegenerateShapes) {
  // Chunk larger than N: one chunk, sequential fallback.
  std::vector<std::atomic<int>> Hits(10);
  parallelForChunked(10, 8, 64, [&](unsigned I) { Hits[I]++; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);

  // N == 0: no calls, no hang.
  std::atomic<int> Calls{0};
  parallelForChunked(0, 4, 8, [&](unsigned) { Calls++; });
  EXPECT_EQ(Calls.load(), 0);

  // ChunkSize == 0 is clamped to 1.
  std::vector<std::atomic<int>> Hits2(33);
  parallelForChunked(33, 4, 0, [&](unsigned I) { Hits2[I]++; });
  for (auto &H : Hits2)
    EXPECT_EQ(H.load(), 1);
}

TEST(ParallelForChunked, ChunksVisitIndicesInOrder) {
  // Within every chunk the indices must arrive in increasing order, and
  // each chunk must be executed by a single worker — the properties the
  // streaming driver's index-order merge is built on.
  constexpr unsigned N = 512, Chunk = 16;
  std::array<std::atomic<unsigned>, N / Chunk> LastInChunk;
  for (auto &L : LastInChunk)
    L.store(~0u);
  std::atomic<bool> Ordered{true}, SingleOwner{true};
  std::vector<std::unique_ptr<std::thread::id>> Ids(N / Chunk);
  parallelForChunked(N, 4, Chunk, [&](unsigned I) {
    unsigned C = I / Chunk;
    unsigned Prev = LastInChunk[C].exchange(I);
    if (Prev != ~0u && Prev + 1 != I)
      Ordered = false;
    if (!Ids[C])
      Ids[C] = std::make_unique<std::thread::id>(std::this_thread::get_id());
    else if (*Ids[C] != std::this_thread::get_id())
      SingleOwner = false;
  });
  EXPECT_TRUE(Ordered.load());
  EXPECT_TRUE(SingleOwner.load());
}
