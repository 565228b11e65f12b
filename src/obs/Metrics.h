//===- obs/Metrics.h - Histograms, gauges, request traces ------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live-serving telemetry plane: constant-memory HDR-style histograms
/// with rolling windows, point-in-time gauges, a request-scoped span chain,
/// and the snapshot type the server's StatsReply frames render from.
///
/// Histogram bucketing is log-linear: values below 64 land in their own
/// exact bucket; above that, each power-of-two octave is split into 32
/// linear sub-buckets, so a bucket's width is at most 1/32 of its base and
/// the midpoint representative is within 2^-6 ~ 1.56% of any value it
/// absorbs (documented bound: 2.5% relative error, leaving headroom for
/// quantile-rank discretisation at small counts). Values are clamped to
/// [0, 2^40) — recording microseconds, that is ~12.7 days — which fixes
/// the bucket count at 1152 and the memory at a few KB per stripe.
///
/// Recording is lock-striped: each Histogram holds a small set of
/// independent atomic bucket arrays, a recording thread picks a stripe by
/// thread identity, and snapshot() merges the stripes. Recording is
/// wait-free (relaxed fetch_add; min/max are relaxed CAS loops) and
/// snapshots are mergeable, so per-worker histograms can be combined
/// across threads or processes without coordination during the hot path.
///
/// WindowedHistogram adds rolling 1s/10s/60s views: a ring of one-second
/// slices tagged with their epoch second, lazily recycled as time
/// advances. A snapshot of window W merges the slices whose epoch lies in
/// (now - W, now]. The clock is injectable (pass NowNs) so expiry is
/// deterministically testable.
///
/// A snapshot's Count is always derived from its bucket contents, so the
/// invariant "count == sum of buckets" holds by construction even when
/// snapshots race with recorders (check_trace.py --metrics relies on it).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_OBS_METRICS_H
#define LSRA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lsra {
namespace obs {

//===----------------------------------------------------------------------===//
// Bucketing
//===----------------------------------------------------------------------===//

/// Log-linear bucket layout constants. 64 exact buckets for values < 64,
/// then 32 linear sub-buckets per power-of-two octave up to 2^40.
struct HistogramLayout {
  static constexpr unsigned SubBucketBits = 5;    ///< 32 sub-buckets/octave
  static constexpr unsigned FirstOctave = 6;      ///< values < 2^6 are exact
  static constexpr unsigned MaxOctave = 39;       ///< values clamped < 2^40
  static constexpr unsigned NumBuckets =
      (1u << FirstOctave) +
      (MaxOctave - FirstOctave + 1) * (1u << SubBucketBits); ///< 1152

  static uint32_t bucketIndex(uint64_t V);
  /// Inclusive lower bound of bucket \p Idx.
  static uint64_t bucketLow(uint32_t Idx);
  /// Inclusive upper bound of bucket \p Idx.
  static uint64_t bucketHigh(uint32_t Idx);
  /// The representative value reported for samples in bucket \p Idx.
  static uint64_t bucketMid(uint32_t Idx);
};

//===----------------------------------------------------------------------===//
// HistogramSnapshot
//===----------------------------------------------------------------------===//

/// An immutable, mergeable point-in-time view of a histogram. Count is
/// derived from Buckets; Sum/Min/Max are carried alongside.
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< 0 when empty
  uint64_t Max = 0; ///< 0 when empty
  std::vector<uint64_t> Buckets; ///< dense, HistogramLayout::NumBuckets

  /// Fold \p Other into this snapshot (bucket-wise addition). Associative
  /// and commutative, so any merge order yields identical results.
  void merge(const HistogramSnapshot &Other);

  /// The value at percentile \p P in [0, 100]: the midpoint of the bucket
  /// containing the sample of rank ceil(P/100 * Count), clamped into
  /// [Min, Max]. Returns 0 when empty.
  uint64_t percentile(double P) const;

  double mean() const {
    return Count ? static_cast<double>(Sum) / static_cast<double>(Count) : 0.0;
  }
};

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// \p Seconds as whole microseconds (rounded): the unit of the
/// alloc.time.*_us histograms.
inline uint64_t secondsToUs(double Seconds) {
  return Seconds > 0 ? static_cast<uint64_t>(Seconds * 1e6 + 0.5) : 0;
}

/// Lifetime (non-windowed) histogram with lock-striped wait-free recording.
class Histogram {
public:
  static constexpr unsigned NumStripes = 4;

  Histogram();
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Wait-free; safe from any number of threads concurrently.
  void record(uint64_t V);

  /// Merge all stripes into one snapshot. Safe to call concurrently with
  /// record(); a racing sample lands wholly in or wholly out.
  HistogramSnapshot snapshot() const;

private:
  struct Stripe {
    std::atomic<uint64_t> Buckets[HistogramLayout::NumBuckets];
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Min{UINT64_MAX};
    std::atomic<uint64_t> Max{0};
  };
  Stripe &localStripe();
  std::unique_ptr<Stripe[]> Stripes;
};

//===----------------------------------------------------------------------===//
// WindowedHistogram
//===----------------------------------------------------------------------===//

/// A lifetime Histogram plus a ring of one-second slices backing rolling
/// 1s/10s/60s window snapshots. Slices hold 32-bit bucket counts (a window
/// slice absorbs at most one second of samples).
class WindowedHistogram {
public:
  static constexpr unsigned NumSlices = 61; ///< covers a 60 s window

  WindowedHistogram();
  WindowedHistogram(const WindowedHistogram &) = delete;
  WindowedHistogram &operator=(const WindowedHistogram &) = delete;

  /// Record into the lifetime histogram and the current one-second slice.
  /// \p NowNs < 0 means "use the real steady clock"; tests pass explicit
  /// times to drive expiry deterministically.
  void record(uint64_t V, int64_t NowNs = -1);

  /// The lifetime view.
  HistogramSnapshot snapshot() const { return Life.snapshot(); }

  /// Merge of the slices covering the last \p WindowSecs seconds
  /// (WindowSecs is clamped to NumSlices - 1).
  HistogramSnapshot windowSnapshot(unsigned WindowSecs,
                                   int64_t NowNs = -1) const;

private:
  struct Slice {
    std::atomic<int64_t> EpochSec{-1}; ///< -1: never used
    std::mutex RotMu;                  ///< serialises recycling only
    std::atomic<uint32_t> Buckets[HistogramLayout::NumBuckets];
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Min{UINT64_MAX};
    std::atomic<uint64_t> Max{0};
  };
  Slice &sliceFor(int64_t Sec);

  Histogram Life;
  std::unique_ptr<Slice[]> Slices;
};

//===----------------------------------------------------------------------===//
// Gauge
//===----------------------------------------------------------------------===//

/// A point-in-time signed value (queue depth, in-flight requests, RSS).
class Gauge {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t D) { Value.fetch_add(D, std::memory_order_relaxed); }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

/// Everything the registry knows at one instant, in one versioned value.
/// The server renders StatsReply payloads from this; `lsra stats` and the
/// Prometheus text format are two renderings of the same snapshot.
struct MetricsSnapshot {
  static constexpr unsigned SchemaVersion = 1;

  struct HistEntry {
    std::string Name;
    HistogramSnapshot Life;
    HistogramSnapshot W1, W10, W60; ///< rolling 1s/10s/60s views
  };

  int64_t UnixMs = 0; ///< wall-clock capture time, ms since the epoch
  std::vector<std::pair<std::string, uint64_t>> Counters; ///< name-sorted
  std::vector<std::pair<std::string, int64_t>> Gauges;    ///< name-sorted
  std::vector<HistEntry> Hists;                           ///< name-sorted

  /// The versioned JSON document ("schema", "unix_ms", "counters",
  /// "gauges", "histograms" with life/w1/w10/w60 sections carrying
  /// count/sum/min/max/p50/p90/p95/p99 and sparse [low, count] buckets).
  std::string toJson() const;

  /// Prometheus text exposition: counters as `# TYPE ... counter`, gauges
  /// as gauges, lifetime histograms as cumulative `_bucket{le="..."}`
  /// series with `_sum`/`_count`. Metric names are `lsra_` + the registry
  /// name with non-alphanumerics mapped to '_'.
  std::string toPrometheus() const;

  /// Fixed-width human-readable rendering for `lsra top`.
  std::string toText() const;
};

//===----------------------------------------------------------------------===//
// Request-scoped tracing
//===----------------------------------------------------------------------===//

/// The span chain of one sampled server request, in absolute steady-clock
/// time (steadyNowNs). The server's loop adds the recv, admit,
/// queue-wait, merged and reply intervals with addPhase(); the compile
/// pipeline's ScopedSpans add cache-probe, l2-probe, parse, alloc (with
/// lowerCalls and allocateModule, each function's dce inside the latter)
/// and emit when handed the trace through ExecOptions::ReqTrace, which no
/// cache key includes.
/// Phases may be appended from the loop thread and a worker thread at
/// different times; a request is never in both at once, but the mutex
/// keeps the container safe regardless.
struct RequestTrace {
  uint64_t RequestId = 0;
  int64_t ArrivalNs = 0; ///< steadyNowNs() when the frame arrived

  struct Phase {
    std::string Name;
    int64_t StartNs; ///< absolute steady-clock ns
    int64_t DurNs;
  };

  void addPhase(std::string Name, int64_t StartNs, int64_t DurNs);
  std::vector<Phase> phases() const;

  /// Re-emit every phase into the global Chrome tracer (category
  /// "request", names prefixed "req:<id>:"). No-op when the tracer is
  /// disabled.
  void emitToTracer() const;

private:
  mutable std::mutex Mu;
  std::vector<Phase> Phases;
};

/// Process-wide JSONL sink for completed request traces (`lsra serve
/// --request-log=F`). One self-describing object per request with the
/// phase chain in relative microseconds.
class RequestLog {
public:
  static RequestLog &global();

  RequestLog();
  ~RequestLog();

  bool open(const std::string &Path);
  void close();
  bool enabled() const { return IsOpen.load(std::memory_order_relaxed); }

  /// Append one record. \p Status is the terminal outcome ("ok", "error",
  /// "deadline", ...); \p QueueUs / \p TotalUs are the server-side
  /// admission wait and arrival-to-reply time.
  void write(const RequestTrace &T, const char *Status, bool Cached,
             uint64_t QueueUs, uint64_t TotalUs);

private:
  std::atomic<bool> IsOpen{false};
  std::mutex Mu;
  std::unique_ptr<std::ofstream> OS;
};

} // namespace obs
} // namespace lsra

#endif // LSRA_OBS_METRICS_H
