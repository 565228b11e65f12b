//===- tests/metrics_test.cpp - Telemetry histogram/gauge tests -----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The telemetry plane's unit contract: log-linear bucket layout, quantile
// accuracy against exact sorted samples, merge associativity, determinism
// under concurrent recording, rolling-window expiry on an injected clock,
// and the snapshot renderings. Designed to run under LSRA_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

using namespace lsra;
using namespace lsra::obs;

namespace {

/// Deterministic 64-bit LCG (tests must not depend on std::rand state).
struct Lcg {
  uint64_t S;
  explicit Lcg(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 17;
  }
};

/// Exact percentile with the same rank convention as
/// HistogramSnapshot::percentile: the sample of rank ceil(P/100 * N).
uint64_t exactPercentile(std::vector<uint64_t> V, double P) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  Rank = std::min(std::max<size_t>(Rank, 1), V.size());
  return V[Rank - 1];
}

} // namespace

// --- bucket layout ----------------------------------------------------------

TEST(HistogramLayout, ExactBelowFirstOctave) {
  for (uint64_t V = 0; V < 64; ++V) {
    uint32_t Idx = HistogramLayout::bucketIndex(V);
    EXPECT_EQ(Idx, V);
    EXPECT_EQ(HistogramLayout::bucketLow(Idx), V);
    EXPECT_EQ(HistogramLayout::bucketHigh(Idx), V);
    EXPECT_EQ(HistogramLayout::bucketMid(Idx), V);
  }
}

TEST(HistogramLayout, BucketsContainTheirValues) {
  Lcg R(7);
  for (int I = 0; I < 20000; ++I) {
    uint64_t V = R.next() % (1ull << 40);
    uint32_t Idx = HistogramLayout::bucketIndex(V);
    ASSERT_LT(Idx, HistogramLayout::NumBuckets);
    EXPECT_LE(HistogramLayout::bucketLow(Idx), V);
    EXPECT_GE(HistogramLayout::bucketHigh(Idx), V);
  }
}

TEST(HistogramLayout, MidWithinDocumentedRelativeError) {
  // The documented bound is 2.5%; the layout actually guarantees 2^-6.
  Lcg R(11);
  for (int I = 0; I < 20000; ++I) {
    uint64_t V = 64 + R.next() % ((1ull << 40) - 64);
    uint32_t Idx = HistogramLayout::bucketIndex(V);
    double Mid = static_cast<double>(HistogramLayout::bucketMid(Idx));
    double Rel = std::abs(Mid - static_cast<double>(V)) /
                 static_cast<double>(V);
    EXPECT_LE(Rel, 0.025) << "value " << V << " mid " << Mid;
  }
}

TEST(HistogramLayout, ClampsToRange) {
  uint32_t Top = HistogramLayout::bucketIndex(~0ull);
  EXPECT_LT(Top, HistogramLayout::NumBuckets);
  EXPECT_EQ(Top, HistogramLayout::bucketIndex((1ull << 40) - 1));
}

// --- quantile accuracy ------------------------------------------------------

TEST(Histogram, QuantileAccuracyVsExactSamples) {
  Histogram H;
  std::vector<uint64_t> Samples;
  Lcg R(42);
  for (int I = 0; I < 20000; ++I) {
    // Latency-shaped: a dense body with a long tail.
    uint64_t V = 200 + R.next() % 5000;
    if (I % 50 == 0)
      V += R.next() % 400000;
    Samples.push_back(V);
    H.record(V);
  }
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, Samples.size());
  for (double P : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    uint64_t Exact = exactPercentile(Samples, P);
    uint64_t Approx = S.percentile(P);
    double Rel = std::abs(static_cast<double>(Approx) -
                          static_cast<double>(Exact)) /
                 static_cast<double>(Exact);
    EXPECT_LE(Rel, 0.025) << "p" << P << ": exact " << Exact << " approx "
                          << Approx;
  }
  EXPECT_EQ(S.Min, *std::min_element(Samples.begin(), Samples.end()));
  EXPECT_EQ(S.Max, *std::max_element(Samples.begin(), Samples.end()));
}

TEST(Histogram, PercentileEdgeCases) {
  Histogram H;
  EXPECT_EQ(H.snapshot().percentile(50), 0u);
  H.record(12345);
  HistogramSnapshot S = H.snapshot();
  // A single sample is every percentile, clamped into [Min, Max] so the
  // bucket midpoint cannot overshoot the real value.
  EXPECT_EQ(S.percentile(0), 12345u);
  EXPECT_EQ(S.percentile(50), 12345u);
  EXPECT_EQ(S.percentile(100), 12345u);
}

TEST(Histogram, CountEqualsBucketSum) {
  Histogram H;
  Lcg R(3);
  for (int I = 0; I < 5000; ++I)
    H.record(R.next() % 1000000);
  HistogramSnapshot S = H.snapshot();
  uint64_t Total = 0;
  for (uint64_t B : S.Buckets)
    Total += B;
  EXPECT_EQ(S.Count, Total);
  EXPECT_EQ(S.Count, 5000u);
}

// --- merge ------------------------------------------------------------------

TEST(HistogramSnapshot, MergeAssociativeAndCommutative) {
  Histogram HA, HB, HC;
  Lcg R(99);
  for (int I = 0; I < 3000; ++I) {
    HA.record(R.next() % 100000);
    HB.record(1000000 + R.next() % 100000);
    HC.record(R.next() % 64);
  }
  HistogramSnapshot A = HA.snapshot(), B = HB.snapshot(), C = HC.snapshot();

  HistogramSnapshot L = A; // (A + B) + C
  L.merge(B);
  L.merge(C);
  HistogramSnapshot RM = B; // A + (B + C)
  RM.merge(C);
  HistogramSnapshot Right = A;
  Right.merge(RM);

  EXPECT_EQ(L.Count, Right.Count);
  EXPECT_EQ(L.Sum, Right.Sum);
  EXPECT_EQ(L.Min, Right.Min);
  EXPECT_EQ(L.Max, Right.Max);
  EXPECT_EQ(L.Buckets, Right.Buckets);

  HistogramSnapshot BA = B; // commutativity
  BA.merge(A);
  HistogramSnapshot AB = A;
  AB.merge(B);
  EXPECT_EQ(AB.Buckets, BA.Buckets);
  EXPECT_EQ(AB.Sum, BA.Sum);

  // Merging an empty snapshot is the identity.
  HistogramSnapshot Id = A;
  Id.merge(HistogramSnapshot());
  EXPECT_EQ(Id.Buckets, A.Buckets);
  EXPECT_EQ(Id.Min, A.Min);
  EXPECT_EQ(Id.Max, A.Max);
}

// --- concurrency ------------------------------------------------------------

TEST(Histogram, ConcurrentRecordingIsDeterministic) {
  // Whatever the interleaving across stripes, the merged snapshot must
  // equal a serial recording of the same multiset of samples.
  constexpr unsigned Threads = 8;
  constexpr int PerThread = 20000;
  Histogram Par, Ser;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&Par, T] {
      Lcg R(1000 + T);
      for (int I = 0; I < PerThread; ++I)
        Par.record(R.next() % 10000000);
    });
  for (std::thread &T : Pool)
    T.join();
  for (unsigned T = 0; T < Threads; ++T) {
    Lcg R(1000 + T);
    for (int I = 0; I < PerThread; ++I)
      Ser.record(R.next() % 10000000);
  }
  HistogramSnapshot P = Par.snapshot(), S = Ser.snapshot();
  EXPECT_EQ(P.Count, static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(P.Count, S.Count);
  EXPECT_EQ(P.Sum, S.Sum);
  EXPECT_EQ(P.Min, S.Min);
  EXPECT_EQ(P.Max, S.Max);
  EXPECT_EQ(P.Buckets, S.Buckets);
}

TEST(Histogram, SnapshotDuringRecordingNeverTearsCount) {
  Histogram H;
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    Lcg R(5);
    while (!Stop.load(std::memory_order_relaxed))
      H.record(R.next() % 100000);
  });
  for (int I = 0; I < 200; ++I) {
    HistogramSnapshot S = H.snapshot();
    uint64_t Total = 0;
    for (uint64_t B : S.Buckets)
      Total += B;
    ASSERT_EQ(S.Count, Total); // count derived from buckets, by construction
  }
  Stop.store(true);
  Writer.join();
}

// --- rolling windows --------------------------------------------------------

namespace {
constexpr int64_t Sec = 1'000'000'000;
}

TEST(WindowedHistogram, WindowExpiryOnInjectedClock) {
  WindowedHistogram W;
  int64_t T0 = 5 * Sec;
  W.record(100, T0);

  EXPECT_EQ(W.windowSnapshot(1, T0).Count, 1u);
  EXPECT_EQ(W.windowSnapshot(10, T0).Count, 1u);
  EXPECT_EQ(W.windowSnapshot(60, T0).Count, 1u);

  // Two seconds later the 1 s window is empty; 10 s and 60 s retain it.
  EXPECT_EQ(W.windowSnapshot(1, T0 + 2 * Sec).Count, 0u);
  EXPECT_EQ(W.windowSnapshot(10, T0 + 2 * Sec).Count, 1u);
  EXPECT_EQ(W.windowSnapshot(60, T0 + 2 * Sec).Count, 1u);

  // Eleven seconds later only the 60 s window retains it.
  EXPECT_EQ(W.windowSnapshot(10, T0 + 11 * Sec).Count, 0u);
  EXPECT_EQ(W.windowSnapshot(60, T0 + 11 * Sec).Count, 1u);

  // Beyond a minute everything rolls off; the lifetime view never does.
  EXPECT_EQ(W.windowSnapshot(60, T0 + 61 * Sec).Count, 0u);
  EXPECT_EQ(W.snapshot().Count, 1u);
}

TEST(WindowedHistogram, SliceRecyclingDropsOldEpoch) {
  WindowedHistogram W;
  int64_t T0 = 5 * Sec;
  W.record(100, T0);
  // NumSlices seconds later the ring wraps onto the same slice; recording
  // there must recycle it rather than blend two epochs.
  int64_t T1 = T0 + int64_t(WindowedHistogram::NumSlices) * Sec;
  W.record(777, T1);
  HistogramSnapshot S = W.windowSnapshot(60, T1);
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Min, 777u);
  EXPECT_EQ(W.snapshot().Count, 2u); // lifetime keeps both
}

TEST(WindowedHistogram, WindowNeverExceedsLifetime) {
  WindowedHistogram W;
  Lcg R(21);
  int64_t Now = 100 * Sec;
  for (int I = 0; I < 500; ++I) {
    W.record(R.next() % 10000, Now);
    Now += Sec / 10; // 10 samples per second over 50 s
  }
  int64_t Last = Now - Sec / 10; // when the final sample landed
  uint64_t Life = W.snapshot().Count;
  EXPECT_EQ(Life, 500u);
  for (unsigned Window : {1u, 10u, 60u}) {
    uint64_t C = W.windowSnapshot(Window, Last).Count;
    EXPECT_LE(C, Life);
    EXPECT_GT(C, 0u); // samples are recent, every window sees some
  }
  EXPECT_LE(W.windowSnapshot(1, Last).Count,
            W.windowSnapshot(10, Last).Count);
  EXPECT_LE(W.windowSnapshot(10, Last).Count,
            W.windowSnapshot(60, Last).Count);
}

// --- gauges -----------------------------------------------------------------

TEST(Gauge, SetAddValue) {
  Gauge G;
  EXPECT_EQ(G.value(), 0);
  G.set(42);
  EXPECT_EQ(G.value(), 42);
  G.add(-50);
  EXPECT_EQ(G.value(), -8);
}

// --- snapshot renderings ----------------------------------------------------

namespace {

MetricsSnapshot sampleSnapshot() {
  MetricsSnapshot MS;
  MS.UnixMs = 1700000000000;
  MS.Counters.emplace_back("server.completed", 7);
  MS.Gauges.emplace_back("server.queue_depth", 3);
  WindowedHistogram W;
  for (uint64_t V : {100u, 200u, 300u, 40000u})
    W.record(V, 5 * Sec);
  MetricsSnapshot::HistEntry H;
  H.Name = "server.latency_us";
  H.W1 = W.windowSnapshot(1, 5 * Sec);
  H.W10 = W.windowSnapshot(10, 5 * Sec);
  H.W60 = W.windowSnapshot(60, 5 * Sec);
  H.Life = W.snapshot();
  MS.Hists.push_back(std::move(H));
  return MS;
}

} // namespace

TEST(MetricsSnapshot, JsonCarriesSchemaAndSections) {
  std::string J = sampleSnapshot().toJson();
  EXPECT_NE(J.find("\"schema\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  EXPECT_NE(J.find("\"server.latency_us\""), std::string::npos);
  EXPECT_NE(J.find("\"life\""), std::string::npos);
  EXPECT_NE(J.find("\"w60\""), std::string::npos);
  EXPECT_NE(J.find("\"buckets\""), std::string::npos);
}

TEST(MetricsSnapshot, PrometheusRendering) {
  std::string P = sampleSnapshot().toPrometheus();
  EXPECT_NE(P.find("# TYPE lsra_server_completed counter"),
            std::string::npos)
      << P;
  EXPECT_NE(P.find("lsra_server_completed 7"), std::string::npos);
  EXPECT_NE(P.find("# TYPE lsra_server_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(P.find("lsra_server_latency_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(P.find("lsra_server_latency_us_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(P.find("lsra_server_latency_us_count 4"), std::string::npos);
}

TEST(MetricsSnapshot, TextRendering) {
  std::string T = sampleSnapshot().toText();
  EXPECT_NE(T.find("lsra telemetry snapshot"), std::string::npos) << T;
  EXPECT_NE(T.find("server.queue_depth"), std::string::npos);
  EXPECT_NE(T.find("server.latency_us"), std::string::npos);
}

// --- request traces ---------------------------------------------------------

TEST(RequestTrace, PhasesAccumulate) {
  RequestTrace T;
  T.RequestId = 9;
  T.ArrivalNs = 1000;
  T.addPhase("recv", 1000, 0);
  { ScopedSpan P("parse", "pass", &T); }
  { ScopedSpan Null("ignored", "pass"); } // no tracer, no trace: no-op
  std::vector<RequestTrace::Phase> Ps = T.phases();
  ASSERT_EQ(Ps.size(), 2u);
  EXPECT_EQ(Ps[0].Name, "recv");
  EXPECT_EQ(Ps[1].Name, "parse");
  EXPECT_GE(Ps[1].DurNs, 0);
}
