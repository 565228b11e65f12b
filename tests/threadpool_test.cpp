//===- tests/threadpool_test.cpp - Parallel-loop unit tests ---------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The parallel loops the module drivers lean on: every index runs exactly
// once, chunks keep their order, and a body's exception reaches the caller
// after every helper thread has joined instead of aborting the process.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace lsra;

TEST(ParallelFor, DefaultThreadCountIsPositive) {
  EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ParallelFor, ExceptionReachesCallerAfterJoin) {
  std::atomic<unsigned> Calls{0};
  try {
    parallelFor(200, 4, [&](unsigned I) {
      Calls++;
      if (I == 37)
        throw std::runtime_error("body failed");
    });
    FAIL() << "parallelFor should rethrow the body's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "body failed");
  }
  // Every helper was joined before the rethrow: no body runs afterwards.
  unsigned AtReturn = Calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Calls.load(), AtReturn);
}

TEST(ParallelFor, ManyThrowingBodiesDoNotTerminate) {
  // Every thread throws; exactly one exception reaches the caller and the
  // process survives (an exception escaping a std::thread would abort).
  for (int Round = 0; Round < 3; ++Round)
    EXPECT_THROW(parallelFor(64, 4,
                             [](unsigned) { throw std::logic_error("all"); }),
                 std::logic_error);
}

TEST(ParallelFor, SequentialFallbackRethrowsFirst) {
  unsigned Ran = 0; // Threads=1 runs on the calling thread, in order
  try {
    parallelFor(10, 1, [&](unsigned I) {
      ++Ran;
      if (I == 3)
        throw std::runtime_error("first");
    });
    FAIL() << "parallelFor should rethrow";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "first");
  }
  EXPECT_EQ(Ran, 4u);
}

TEST(ParallelForChunked, ExceptionReachesCaller) {
  std::atomic<unsigned> Calls{0};
  try {
    parallelForChunked(1000, 4, 16, [&](unsigned I) {
      Calls++;
      if (I % 100 == 99)
        throw std::runtime_error("chunk body failed");
    });
    FAIL() << "parallelForChunked should rethrow the body's exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "chunk body failed");
  }
  unsigned AtReturn = Calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(Calls.load(), AtReturn);
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
