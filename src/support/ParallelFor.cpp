//===- support/ParallelFor.cpp --------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace lsra;

unsigned lsra::defaultThreadCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

void lsra::parallelForChunked(unsigned N, unsigned Threads, unsigned ChunkSize,
                              const std::function<void(unsigned)> &Body) {
  ChunkSize = std::max(ChunkSize, 1u);
  unsigned NumChunks = N / ChunkSize + (N % ChunkSize != 0);
  Threads = std::min(Threads, NumChunks);
  if (Threads <= 1) {
    for (unsigned I = 0; I < N; ++I)
      Body(I);
    return;
  }

  std::atomic<unsigned> NextChunk{0};
  std::mutex ErrMu;
  std::exception_ptr FirstError;
  auto Drain = [&] {
    try {
      for (unsigned C = NextChunk.fetch_add(1, std::memory_order_relaxed);
           C < NumChunks;
           C = NextChunk.fetch_add(1, std::memory_order_relaxed)) {
        unsigned Begin = C * ChunkSize;
        unsigned End = std::min(N, Begin + ChunkSize);
        for (unsigned I = Begin; I < End; ++I)
          Body(I);
      }
    } catch (...) {
      std::lock_guard<std::mutex> Lock(ErrMu);
      if (!FirstError)
        FirstError = std::current_exception();
    }
  };

  // The calling thread participates, so only Threads - 1 helpers start.
  // jthreads join on destruction, so a failed thread start unwinds safely.
  std::vector<std::jthread> Helpers;
  Helpers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Helpers.emplace_back(Drain);
  Drain();
  Helpers.clear(); // joins every helper
  if (FirstError)
    std::rethrow_exception(FirstError);
}
