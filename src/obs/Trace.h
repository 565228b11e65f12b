//===- obs/Trace.h - Structured span tracing -------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A span tracer in the Chrome trace_event format: RAII ScopedSpans record
/// complete ("ph":"X") events that chrome://tracing and Perfetto load
/// directly. The paper's evaluation is all measurement (Tables 1-3); this
/// is the instrument that shows *where* inside a run the time goes —
/// per-pass, per-function, per-allocator-phase.
///
/// Concurrency: spans are appended to per-thread buffers (one per OS
/// thread per tracer generation) that are merged at flush, so tracing
/// composes with AllocOptions::Threads without serialising the workers.
/// Each buffer carries a small dense tid assigned on first use; nesting is
/// implied per-tid by timestamps, as the trace_event format specifies.
///
/// A ScopedSpan given a RequestTrace (obs/Metrics.h) also records its
/// interval there, so one span serves both the Chrome trace and a sampled
/// server request's phase chain under one name.
///
/// Cost: when the tracer is disabled (the default) and no request trace is
/// given, a ScopedSpan is one relaxed atomic load and no allocation — cheap
/// enough to leave compiled into every pass. Enabling is explicit (CLI
/// flag, bench, or test).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_OBS_TRACE_H
#define LSRA_OBS_TRACE_H

#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lsra {
namespace obs {

struct RequestTrace;

/// One complete span, in absolute steady-clock nanoseconds.
struct TraceEvent {
  std::string Name;
  const char *Cat; ///< static category string ("pass", "phase", ...)
  int64_t StartNs;
  int64_t DurNs;
  uint32_t Tid; ///< dense per-tracer thread id
};

/// Aggregate view of all spans sharing a name (see Tracer::summarize).
struct SpanSummary {
  std::string Name;
  const char *Cat;
  uint64_t Count;
  int64_t TotalNs;
};

class Tracer {
public:
  /// The process-wide tracer every ScopedSpan reports to.
  static Tracer &global();

  /// Start capturing. Sets the time epoch if not already enabled.
  void enable();
  void disable();
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Record a complete span (called by ScopedSpan's destructor); \p StartNs
  /// is absolute steady-clock time.
  void complete(std::string Name, const char *Cat, int64_t StartNs,
                int64_t DurNs);

  /// Merge every thread buffer into one list, ordered by (tid, start,
  /// longest-first) so a parent span precedes its children.
  ///
  /// Requires quiescence: no thread may be recording concurrently (the
  /// module drivers join their worker pools before returning, so calling
  /// this between runs is safe).
  std::vector<TraceEvent> snapshot() const;

  /// Spans aggregated by name, longest total first. Same quiescence
  /// requirement as snapshot().
  std::vector<SpanSummary> summarize() const;

  /// Emit the Chrome trace_event JSON document (load in chrome://tracing
  /// or https://ui.perfetto.dev), timestamps relative to the epoch.
  /// Returns false if \p Path is unwritable.
  void writeChromeJson(std::ostream &OS) const;
  bool writeChromeJson(const std::string &Path) const;

  /// Drop all recorded events and retire every thread buffer. Requires the
  /// same quiescence as snapshot().
  void reset();

private:
  struct ThreadBuf {
    mutable std::mutex Mu;
    std::vector<TraceEvent> Events;
    uint32_t Tid = 0;
  };

  ThreadBuf &localBuf();

  std::atomic<bool> Enabled{false};
  int64_t EpochNs = 0; ///< steadyNowNs() at the first enable()
  bool EpochSet = false;

  mutable std::mutex Mu; ///< guards Buffers
  std::vector<std::unique_ptr<ThreadBuf>> Buffers;
  std::atomic<uint64_t> Generation{0}; ///< bumped by reset()
  uint32_t NextTid = 0;
};

/// RAII span over [construction, destruction). It reads the steady clock
/// once at each end and reports the interval to the global tracer when that
/// was enabled at construction, and to \p RT when one is given.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name, const char *Cat = "pass",
                      RequestTrace *RT = nullptr)
      : Tracing(Tracer::global().enabled()), RT(RT), Cat_(Cat) {
    if (!Tracing && !RT)
      return;
    Name_ = Name;
    StartNs = steadyNowNs();
  }

  /// Dynamic-name form, e.g. ScopedSpan("alloc:", F.name(), "function").
  /// The concatenation happens only when tracing is enabled.
  ScopedSpan(const char *Prefix, const std::string &Suffix,
             const char *Cat = "function")
      : Tracing(Tracer::global().enabled()), Cat_(Cat) {
    if (!Tracing)
      return;
    Name_.reserve(std::char_traits<char>::length(Prefix) + Suffix.size());
    Name_ += Prefix;
    Name_ += Suffix;
    StartNs = steadyNowNs();
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  ~ScopedSpan() {
    if (Tracing || RT)
      finish();
  }

private:
  void finish();

  bool Tracing;
  RequestTrace *RT = nullptr;
  std::string Name_;
  const char *Cat_;
  int64_t StartNs = 0;
};

} // namespace obs
} // namespace lsra

#endif // LSRA_OBS_TRACE_H
