//===- support/MemStats.cpp -----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/MemStats.h"

#include <chrono>
#include <cstdio>

#include <unistd.h>

using namespace lsra;

uint64_t lsra::currentRssBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Total = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Total, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  static const long Page = sysconf(_SC_PAGESIZE);
  return Resident * static_cast<uint64_t>(Page > 0 ? Page : 4096);
}

void PeakRssSampler::start() {
  stop();
  Max.store(currentRssBytes(), std::memory_order_relaxed);
  Running.store(true, std::memory_order_release);
  Worker = std::thread([this] {
    while (Running.load(std::memory_order_acquire)) {
      uint64_t R = currentRssBytes();
      uint64_t M = Max.load(std::memory_order_relaxed);
      while (R > M &&
             !Max.compare_exchange_weak(M, R, std::memory_order_relaxed))
        ;
      std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
    }
  });
}

uint64_t PeakRssSampler::stop() {
  if (Worker.joinable()) {
    Running.store(false, std::memory_order_release);
    Worker.join();
  }
  uint64_t R = currentRssBytes();
  uint64_t M = Max.load(std::memory_order_relaxed);
  if (R > M)
    Max.store(R, std::memory_order_relaxed);
  return Max.load(std::memory_order_relaxed);
}
