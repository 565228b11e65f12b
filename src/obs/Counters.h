//===- obs/Counters.h - Named counter / metrics registry -------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named monotonic counters, histograms and
/// gauges — the numeric side of the observability layer. The paper's
/// evaluation quantities (static spill counts, dynamic spill percentages,
/// allocation time) flow through here: AllocStats and RunStats are
/// re-exported as registry entries, and instrumented code adds
/// finer-grained counts (binpack.evictions, lifetime.holes,
/// vm.dyn.spill_loads, ...).
///
/// Counters are relaxed atomics, so concurrent per-function allocation
/// workers bump them without coordination; because addition commutes, the
/// totals are deterministic for any thread count. Value distributions are
/// WindowedHistograms (obs/Metrics.h), whose bucket counts commute the
/// same way; a histogram's name carries its unit (alloc.time.cpu_us).
///
/// The one read path is metricsSnapshot(): the versioned document a
/// StatsReply carries and `lsra run|serve --stats-json` writes.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_OBS_COUNTERS_H
#define LSRA_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lsra {

struct AllocStats;
struct RunStats;

namespace obs {

class WindowedHistogram;
class Gauge;
struct MetricsSnapshot;

/// Monotonically increasing counter. add() is wait-free and commutative,
/// so totals are identical for any AllocOptions::Threads.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

class CounterRegistry {
public:
  /// The process-wide registry all instrumentation reports to.
  static CounterRegistry &global();

  /// Instrumented code checks enabled() before computing anything for the
  /// registry; with it off (the default) the cost is one relaxed load.
  void enable() { Enabled.store(true, std::memory_order_release); }
  void disable() { Enabled.store(false, std::memory_order_release); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Find-or-create. The returned references stay valid until reset();
  /// instrumentation looks its counters up per use rather than caching
  /// references across runs.
  Counter &counter(const std::string &Name);
  /// Rolling-window histogram (obs/Metrics.h). Lazily allocated per name;
  /// same validity rules as counter().
  WindowedHistogram &histogram(const std::string &Name);
  /// Point-in-time gauge (obs/Metrics.h).
  Gauge &gauge(const std::string &Name);

  /// Re-export every AllocStats field under "alloc.*" (timing fields as
  /// the "alloc.time.cpu_us" / "alloc.time.wall_us" histograms).
  void recordAllocStats(const AllocStats &S);
  /// Export the process heap-allocation totals (support/AllocProfile) as
  /// the "alloc.count" / "alloc.bytes" counters. Call once, immediately
  /// before writing a snapshot: the totals are cumulative, so the counters
  /// would double-count if recorded twice into one registry generation.
  void recordAllocProfile();
  /// Re-export every RunStats field under "vm.dyn.*".
  void recordRunStats(const RunStats &S);

  /// Capture every counter, gauge, and histogram (lifetime + 1s/10s/60s
  /// windows) into one versioned MetricsSnapshot — the value StatsReply
  /// frames and the Prometheus rendering are produced from.
  MetricsSnapshot metricsSnapshot() const;

  /// Drop every entry. References obtained before reset() are invalid.
  void reset();

private:
  struct Entry;
  /// Find-or-create under the registry lock. \p Kind tags the entry's
  /// flavour (counter, histogram or gauge) and must be written under the
  /// same lock: concurrent bumpers of one name race on the tag otherwise.
  Entry &entry(const std::string &Name, int Kind);

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu; ///< guards Entries (lookup/registration only)
  std::vector<std::unique_ptr<Entry>> Entries;
};

} // namespace obs
} // namespace lsra

#endif // LSRA_OBS_COUNTERS_H
