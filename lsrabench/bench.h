//===- lsrabench/bench.h - Repository benchmark: shared pieces -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's workloads: the command-line
/// options, the result every workload fills in, and the small statistics
/// and timing helpers. See README.md in this directory for the workloads,
/// the metrics and what each layer metric should move.
///
//===----------------------------------------------------------------------===//

#ifndef LSRABENCH_BENCH_H
#define LSRABENCH_BENCH_H

#include "support/AllocProfile.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lsrabench {

/// Default workload seed; `--seed` overrides it. A second seed, 20261016,
/// is the one to confirm a claim on after tuning against the default.
constexpr uint64_t DefaultSeed = 1;
constexpr uint64_t ConfirmSeed = 20261016;

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string LsraTool; ///< `lsra` binary (serve-mix server)
  std::string WorkDir;  ///< scratch directory for the server socket
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::string Note; ///< printed beside the value, not part of the JSON
};

/// What one workload run produced. End-to-end metrics come from the
/// untraced phase; layer metrics from the traced phase (trace runs only).
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< first few failure descriptions
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
  std::vector<std::string> Notes; ///< extra human-readable lines

  void fail(const std::string &What);
  void e2e(const std::string &Name, double V, const char *Unit,
           std::string Note = "") {
    EndToEnd.push_back({Name, V, Unit, std::move(Note)});
  }
  void layer(const std::string &Name, double V, const char *Unit,
             std::string Note = "") {
    Layers.push_back({Name, V, Unit, std::move(Note)});
  }
};

int runOffline(const Options &O, Result &R); // corpus-cold, code-cold, fuzz-grid
int runServe(const Options &O, Result &R);   // serve-mix

//--- helpers (Report.cpp) ---------------------------------------------------

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Value at quantile \p Q in [0,1] of \p V by linear interpolation between
/// order statistics (0 when empty).
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// The tail percentile the benchmark reports for \p N samples: the highest
/// percentile with at least ten samples beyond it, never below the median.
double tailPercentile(size_t N);

/// Peak resident set of this process, MiB.
double selfPeakRssMb();
/// Peak resident set (VmHWM) of process \p Pid, MiB; 0 when unreadable.
double pidPeakRssMb(int Pid);

/// Lines of \p Text and how many of them are `mem` image lines.
void countLines(const std::string &Text, uint64_t &Lines, uint64_t &MemLines);

/// Accumulated cost of one layer in the traced phase.
struct LayerCost {
  double Sec = 0;
  uint64_t Allocs = 0;
};

/// Times one call into a layer and charges it, with its heap allocations,
/// to \p C.
class Span {
public:
  explicit Span(LayerCost &C)
      : C(C), A0(lsra::allocSnapshot()), T0(nowSec()) {}
  ~Span() {
    C.Sec += nowSec() - T0;
    C.Allocs += (lsra::allocSnapshot() - A0).Count;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  LayerCost &C;
  lsra::AllocSnapshot A0;
  double T0;
};

/// Deterministic 64-bit generator (splitmix64) for seeded choices.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

template <typename T> void shuffle(std::vector<T> &V, Rng &G) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[G.below(I)]);
}

} // namespace lsrabench

#endif // LSRABENCH_BENCH_H
