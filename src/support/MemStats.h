//===- support/MemStats.h - Process memory statistics ----------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resident-set-size measurement for the scaling experiments. The kernel's
/// VmHWM high-water mark is monotonic over the whole process, so comparing
/// the peak RSS of several configurations inside one benchmark binary needs
/// a sampler: PeakRssSampler polls the current RSS (/proc/self/statm) on a
/// background thread and records the maximum seen between start() and
/// stop().
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SUPPORT_MEMSTATS_H
#define LSRA_SUPPORT_MEMSTATS_H

#include <atomic>
#include <cstdint>
#include <thread>

namespace lsra {

/// Current resident set size in bytes (0 when /proc is unavailable).
uint64_t currentRssBytes();

/// Samples currentRssBytes() on a background thread and keeps the maximum.
/// One sampler measures one region; start() resets the maximum.
class PeakRssSampler {
public:
  explicit PeakRssSampler(unsigned IntervalMs = 2) : IntervalMs(IntervalMs) {}
  ~PeakRssSampler() { stop(); }

  void start();
  /// Stop sampling and return the maximum RSS observed (including one final
  /// sample taken after the worker joins).
  uint64_t stop();

private:
  unsigned IntervalMs;
  std::atomic<bool> Running{false};
  std::atomic<uint64_t> Max{0};
  std::thread Worker;
};

} // namespace lsra

#endif // LSRA_SUPPORT_MEMSTATS_H
