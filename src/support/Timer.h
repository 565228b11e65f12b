//===- support/Timer.h - Wall-clock stopwatch -----------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Monotonic wall-clock stopwatch used by the Table 3 compile-time
/// experiments, mirroring the paper's "record the time of day before and
/// after allocation" methodology, and the project's one steady-clock
/// timestamp function.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SUPPORT_TIMER_H
#define LSRA_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace lsra {

/// Absolute steady-clock (CLOCK_MONOTONIC) nanoseconds. The event loop's
/// timer wheel, server request traces, spans and the loadgen --record-out
/// timestamps all read this one function, so client and server views of
/// one request are directly comparable on the same machine.
inline int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulating stopwatch. start()/stop() pairs add to the running total so
/// a single timer can sum the allocation time over all procedures in a
/// module, as the paper's Table 3 does.
class Timer {
public:
  void start() { Begin = Clock::now(); }

  void stop() {
    TotalNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - Begin)
                   .count();
  }

  void reset() { TotalNs = 0; }

  double seconds() const { return static_cast<double>(TotalNs) * 1e-9; }
  double milliseconds() const { return static_cast<double>(TotalNs) * 1e-6; }
  long long nanoseconds() const { return TotalNs; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Begin;
  long long TotalNs = 0;
};

} // namespace lsra

#endif // LSRA_SUPPORT_TIMER_H
