//===- obs/Metrics.cpp ----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/Json.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

using namespace lsra;
using namespace lsra::obs;

//===----------------------------------------------------------------------===//
// Bucketing
//===----------------------------------------------------------------------===//

static unsigned msbIndex(uint64_t V) {
  unsigned B = 0;
  while (V >>= 1)
    ++B;
  return B;
}

uint32_t HistogramLayout::bucketIndex(uint64_t V) {
  constexpr uint64_t MaxValue = (uint64_t(1) << (MaxOctave + 1)) - 1;
  if (V > MaxValue)
    V = MaxValue;
  if (V < (uint64_t(1) << FirstOctave))
    return static_cast<uint32_t>(V);
  unsigned B = msbIndex(V); // FirstOctave <= B <= MaxOctave
  uint32_t Sub = static_cast<uint32_t>((V >> (B - SubBucketBits)) &
                                       ((1u << SubBucketBits) - 1));
  return (1u << FirstOctave) + (B - FirstOctave) * (1u << SubBucketBits) + Sub;
}

uint64_t HistogramLayout::bucketLow(uint32_t Idx) {
  if (Idx < (1u << FirstOctave))
    return Idx;
  uint32_t Rel = Idx - (1u << FirstOctave);
  unsigned B = FirstOctave + Rel / (1u << SubBucketBits);
  uint64_t Sub = Rel % (1u << SubBucketBits);
  return (uint64_t(1) << B) + Sub * (uint64_t(1) << (B - SubBucketBits));
}

uint64_t HistogramLayout::bucketHigh(uint32_t Idx) {
  if (Idx < (1u << FirstOctave))
    return Idx;
  uint32_t Rel = Idx - (1u << FirstOctave);
  unsigned B = FirstOctave + Rel / (1u << SubBucketBits);
  return bucketLow(Idx) + (uint64_t(1) << (B - SubBucketBits)) - 1;
}

uint64_t HistogramLayout::bucketMid(uint32_t Idx) {
  return (bucketLow(Idx) + bucketHigh(Idx)) / 2;
}

//===----------------------------------------------------------------------===//
// HistogramSnapshot
//===----------------------------------------------------------------------===//

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  if (Other.Count == 0)
    return;
  if (Buckets.empty())
    Buckets.assign(HistogramLayout::NumBuckets, 0);
  for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I)
    Buckets[I] += Other.Buckets.empty() ? 0 : Other.Buckets[I];
  Min = Count == 0 ? Other.Min : std::min(Min, Other.Min);
  Max = Count == 0 ? Other.Max : std::max(Max, Other.Max);
  Count += Other.Count;
  Sum += Other.Sum;
}

uint64_t HistogramSnapshot::percentile(double P) const {
  if (Count == 0)
    return 0;
  if (P <= 0)
    return Min;
  if (P >= 100)
    return Max;
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(P / 100.0 * static_cast<double>(Count)));
  if (Rank < 1)
    Rank = 1;
  uint64_t Seen = 0;
  for (uint32_t I = 0; I < Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank) {
      uint64_t V = HistogramLayout::bucketMid(I);
      return std::min(std::max(V, Min), Max);
    }
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Small dense per-thread stripe index; threads spread round-robin.
static unsigned stripeIndexForThread() {
  static std::atomic<unsigned> Next{0};
  static thread_local unsigned Mine =
      Next.fetch_add(1, std::memory_order_relaxed);
  return Mine;
}

static void atomicMin(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V < Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

static void atomicMax(std::atomic<uint64_t> &A, uint64_t V) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (V > Cur &&
         !A.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram() : Stripes(new Stripe[NumStripes]) {
  for (unsigned S = 0; S < NumStripes; ++S)
    for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I)
      Stripes[S].Buckets[I].store(0, std::memory_order_relaxed);
}

Histogram::Stripe &Histogram::localStripe() {
  return Stripes[stripeIndexForThread() % NumStripes];
}

void Histogram::record(uint64_t V) {
  Stripe &S = localStripe();
  S.Buckets[HistogramLayout::bucketIndex(V)].fetch_add(
      1, std::memory_order_relaxed);
  S.Sum.fetch_add(V, std::memory_order_relaxed);
  atomicMin(S.Min, V);
  atomicMax(S.Max, V);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Out;
  Out.Buckets.assign(HistogramLayout::NumBuckets, 0);
  uint64_t Min = UINT64_MAX, Max = 0;
  for (unsigned S = 0; S < NumStripes; ++S) {
    const Stripe &St = Stripes[S];
    for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I) {
      uint64_t N = St.Buckets[I].load(std::memory_order_relaxed);
      Out.Buckets[I] += N;
      Out.Count += N;
    }
    Out.Sum += St.Sum.load(std::memory_order_relaxed);
    Min = std::min(Min, St.Min.load(std::memory_order_relaxed));
    Max = std::max(Max, St.Max.load(std::memory_order_relaxed));
  }
  Out.Min = Out.Count ? Min : 0;
  Out.Max = Out.Count ? Max : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// WindowedHistogram
//===----------------------------------------------------------------------===//

WindowedHistogram::WindowedHistogram() : Slices(new Slice[NumSlices]) {
  for (unsigned S = 0; S < NumSlices; ++S)
    for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I)
      Slices[S].Buckets[I].store(0, std::memory_order_relaxed);
}

WindowedHistogram::Slice &WindowedHistogram::sliceFor(int64_t Sec) {
  Slice &S = Slices[static_cast<uint64_t>(Sec) % NumSlices];
  if (S.EpochSec.load(std::memory_order_acquire) != Sec) {
    std::lock_guard<std::mutex> L(S.RotMu);
    if (S.EpochSec.load(std::memory_order_relaxed) != Sec) {
      for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I)
        S.Buckets[I].store(0, std::memory_order_relaxed);
      S.Sum.store(0, std::memory_order_relaxed);
      S.Min.store(UINT64_MAX, std::memory_order_relaxed);
      S.Max.store(0, std::memory_order_relaxed);
      S.EpochSec.store(Sec, std::memory_order_release);
    }
  }
  return S;
}

void WindowedHistogram::record(uint64_t V, int64_t NowNs) {
  Life.record(V);
  if (NowNs < 0)
    NowNs = steadyNowNs();
  Slice &S = sliceFor(NowNs / 1000000000);
  S.Buckets[HistogramLayout::bucketIndex(V)].fetch_add(
      1, std::memory_order_relaxed);
  S.Sum.fetch_add(V, std::memory_order_relaxed);
  atomicMin(S.Min, V);
  atomicMax(S.Max, V);
}

HistogramSnapshot WindowedHistogram::windowSnapshot(unsigned WindowSecs,
                                                    int64_t NowNs) const {
  if (NowNs < 0)
    NowNs = steadyNowNs();
  int64_t NowSec = NowNs / 1000000000;
  if (WindowSecs > NumSlices - 1)
    WindowSecs = NumSlices - 1;
  HistogramSnapshot Out;
  Out.Buckets.assign(HistogramLayout::NumBuckets, 0);
  uint64_t Min = UINT64_MAX, Max = 0;
  for (unsigned S = 0; S < NumSlices; ++S) {
    const Slice &Sl = Slices[S];
    int64_t E = Sl.EpochSec.load(std::memory_order_acquire);
    if (E < 0 || E > NowSec || E <= NowSec - static_cast<int64_t>(WindowSecs))
      continue;
    for (uint32_t I = 0; I < HistogramLayout::NumBuckets; ++I) {
      uint64_t N = Sl.Buckets[I].load(std::memory_order_relaxed);
      Out.Buckets[I] += N;
      Out.Count += N;
    }
    Out.Sum += Sl.Sum.load(std::memory_order_relaxed);
    Min = std::min(Min, Sl.Min.load(std::memory_order_relaxed));
    Max = std::max(Max, Sl.Max.load(std::memory_order_relaxed));
  }
  Out.Min = Out.Count ? Min : 0;
  Out.Max = Out.Count ? Max : 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot rendering
//===----------------------------------------------------------------------===//

static std::string histJson(const HistogramSnapshot &H) {
  std::string Buckets = "[";
  bool First = true;
  for (uint32_t I = 0; I < H.Buckets.size(); ++I) {
    if (!H.Buckets[I])
      continue;
    if (!First)
      Buckets += ", ";
    First = false;
    Buckets += "[";
    Buckets += std::to_string(HistogramLayout::bucketLow(I));
    Buckets += ", ";
    Buckets += std::to_string(H.Buckets[I]);
    Buckets += "]";
  }
  Buckets += "]";
  JsonObject O;
  O.field("count", H.Count)
      .field("sum", H.Sum)
      .field("min", H.Min)
      .field("max", H.Max)
      .field("mean", H.mean())
      .field("p50", H.percentile(50))
      .field("p90", H.percentile(90))
      .field("p95", H.percentile(95))
      .field("p99", H.percentile(99))
      .fieldRaw("buckets", Buckets);
  return O.str();
}

std::string MetricsSnapshot::toJson() const {
  std::string Counter = "{", Gauge = "{", Hist = "{";
  bool First = true;
  for (const auto &C : Counters) {
    Counter += (First ? "" : ", ");
    First = false;
    Counter += jsonQuote(C.first) + ": " + std::to_string(C.second);
  }
  Counter += "}";
  First = true;
  for (const auto &G : Gauges) {
    Gauge += (First ? "" : ", ");
    First = false;
    Gauge += jsonQuote(G.first) + ": " + std::to_string(G.second);
  }
  Gauge += "}";
  First = true;
  for (const auto &H : Hists) {
    Hist += (First ? "" : ", ");
    First = false;
    JsonObject W;
    W.fieldRaw("life", histJson(H.Life))
        .fieldRaw("w1", histJson(H.W1))
        .fieldRaw("w10", histJson(H.W10))
        .fieldRaw("w60", histJson(H.W60));
    Hist += jsonQuote(H.Name) + ": " + W.str();
  }
  Hist += "}";

  JsonObject O;
  O.field("schema", static_cast<uint64_t>(SchemaVersion))
      .field("unix_ms", static_cast<uint64_t>(UnixMs))
      .fieldRaw("counters", Counter)
      .fieldRaw("gauges", Gauge)
      .fieldRaw("histograms", Hist);
  return O.str() + "\n";
}

/// Prometheus metric name: "lsra_" + Name with [^a-zA-Z0-9] -> '_'.
static std::string promName(const std::string &Name) {
  std::string Out = "lsra_";
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) ? C : '_');
  return Out;
}

std::string MetricsSnapshot::toPrometheus() const {
  std::ostringstream OS;
  for (const auto &C : Counters) {
    std::string N = promName(C.first);
    OS << "# TYPE " << N << " counter\n" << N << " " << C.second << "\n";
  }
  for (const auto &G : Gauges) {
    std::string N = promName(G.first);
    OS << "# TYPE " << N << " gauge\n" << N << " " << G.second << "\n";
  }
  for (const auto &H : Hists) {
    std::string N = promName(H.Name);
    OS << "# TYPE " << N << " histogram\n";
    uint64_t Cum = 0;
    for (uint32_t I = 0; I < H.Life.Buckets.size(); ++I) {
      if (!H.Life.Buckets[I])
        continue;
      Cum += H.Life.Buckets[I];
      OS << N << "_bucket{le=\"" << HistogramLayout::bucketHigh(I) << "\"} "
         << Cum << "\n";
    }
    OS << N << "_bucket{le=\"+Inf\"} " << H.Life.Count << "\n"
       << N << "_sum " << H.Life.Sum << "\n"
       << N << "_count " << H.Life.Count << "\n";
  }
  return OS.str();
}

std::string MetricsSnapshot::toText() const {
  std::ostringstream OS;
  OS << "lsra telemetry snapshot (schema " << SchemaVersion << ", unix_ms "
     << UnixMs << ")\n\n";
  if (!Gauges.empty()) {
    OS << "  gauges\n";
    for (const auto &G : Gauges) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "    %-28s %12lld\n", G.first.c_str(),
                    static_cast<long long>(G.second));
      OS << Buf;
    }
    OS << "\n";
  }
  if (!Hists.empty()) {
    OS << "  histograms                        count        p50        p95"
          "        p99        max\n";
    for (const auto &H : Hists) {
      auto Row = [&OS](const char *Label, const HistogramSnapshot &S) {
        char Buf[200];
        std::snprintf(Buf, sizeof(Buf),
                      "    %-28s %10llu %10llu %10llu %10llu %10llu\n", Label,
                      static_cast<unsigned long long>(S.Count),
                      static_cast<unsigned long long>(S.percentile(50)),
                      static_cast<unsigned long long>(S.percentile(95)),
                      static_cast<unsigned long long>(S.percentile(99)),
                      static_cast<unsigned long long>(S.Max));
        OS << Buf;
      };
      OS << "    " << H.Name << "\n";
      Row("  life", H.Life);
      Row("  1s", H.W1);
      Row("  10s", H.W10);
      Row("  60s", H.W60);
    }
    OS << "\n";
  }
  if (!Counters.empty()) {
    OS << "  counters\n";
    for (const auto &C : Counters) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf), "    %-28s %12llu\n", C.first.c_str(),
                    static_cast<unsigned long long>(C.second));
      OS << Buf;
    }
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// RequestTrace
//===----------------------------------------------------------------------===//

void RequestTrace::addPhase(std::string Name, int64_t StartNs, int64_t DurNs) {
  std::lock_guard<std::mutex> L(Mu);
  Phases.push_back({std::move(Name), StartNs, DurNs});
}

std::vector<RequestTrace::Phase> RequestTrace::phases() const {
  std::lock_guard<std::mutex> L(Mu);
  return Phases;
}

void RequestTrace::emitToTracer() const {
  Tracer &T = Tracer::global();
  if (!T.enabled())
    return;
  for (const Phase &P : phases())
    T.complete("req:" + std::to_string(RequestId) + ":" + P.Name, "request",
               P.StartNs, P.DurNs);
}

//===----------------------------------------------------------------------===//
// RequestLog
//===----------------------------------------------------------------------===//

RequestLog &RequestLog::global() {
  static RequestLog L;
  return L;
}

RequestLog::RequestLog() = default;
RequestLog::~RequestLog() = default;

bool RequestLog::open(const std::string &Path) {
  std::lock_guard<std::mutex> L(Mu);
  OS = std::make_unique<std::ofstream>(Path);
  if (!*OS) {
    OS.reset();
    return false;
  }
  IsOpen.store(true, std::memory_order_release);
  return true;
}

void RequestLog::close() {
  std::lock_guard<std::mutex> L(Mu);
  IsOpen.store(false, std::memory_order_release);
  OS.reset();
}

void RequestLog::write(const RequestTrace &T, const char *Status, bool Cached,
                       uint64_t QueueUs, uint64_t TotalUs) {
  if (!enabled())
    return;
  std::string PhasesJson = "[";
  bool First = true;
  for (const RequestTrace::Phase &P : T.phases()) {
    if (!First)
      PhasesJson += ", ";
    First = false;
    JsonObject PO;
    PO.field("name", P.Name)
        .field("rel_us", static_cast<uint64_t>(
                             P.StartNs > T.ArrivalNs
                                 ? (P.StartNs - T.ArrivalNs) / 1000
                                 : 0))
        .field("dur_us", static_cast<uint64_t>(P.DurNs > 0 ? P.DurNs / 1000
                                                           : 0));
    PhasesJson += PO.str();
  }
  PhasesJson += "]";
  JsonObject O;
  O.field("kind", "request")
      .field("id", T.RequestId)
      .field("arrival_ns", static_cast<uint64_t>(T.ArrivalNs))
      .field("status", Status)
      .field("cached", Cached ? 1 : 0)
      .field("queue_us", QueueUs)
      .field("total_us", TotalUs)
      .fieldRaw("phases", PhasesJson);
  std::lock_guard<std::mutex> L(Mu);
  if (OS)
    *OS << O.str() << "\n" << std::flush;
}
