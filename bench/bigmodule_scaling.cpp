//===- bench/bigmodule_scaling.cpp - Million-instruction scaling -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two orders of magnitude past the paper's largest procedure: ~1M generated
// instructions across 600 procedures, compiled by the resident pipeline
// (whole module in memory) and the streaming pipeline (shell resident,
// bodies generated, compiled, emitted and released one at a time). Prints
// wall time, heap allocations per input instruction and the peak-RSS
// footprint for each (pipeline, allocator, threads) configuration, best of
// two. Graph coloring is left out: its interference graphs make it
// minutes-slow at this scale, and Table 3 already characterises it.
//
// Run:  ./build/bench/bigmodule_scaling
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/AllocProfile.h"
#include "support/MemStats.h"
#include "support/ParallelFor.h"
#include "workloads/SyntheticModule.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace lsra;

namespace {

struct Record {
  double WallSeconds = 1e9;
  uint64_t Instrs = 0;         ///< input instructions (pre-allocation)
  uint64_t AllocCount = 0;     ///< heap allocations during the best compile
  uint64_t FootprintBytes = 0; ///< peak RSS - RSS before the best rep
  uint64_t PeakRssBytes = 0;   ///< sampled peak RSS over build + compile
};

/// Best of two reps. \p Build makes the module; \p Compile compiles it,
/// returns its statistics and sets the input instruction count. Freed
/// arena memory goes back to the OS (malloc_trim) before each rep, so the
/// RSS samples reflect this configuration, not an earlier one's high-water
/// mark; peak - base is its own footprint.
template <typename BuildFn, typename CompileFn>
Record bestOfTwo(BuildFn Build, CompileFn Compile) {
  Record R;
  for (int Rep = 0; Rep < 2; ++Rep) {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    uint64_t Base = currentRssBytes();
    PeakRssSampler Rss;
    Rss.start();
    auto M = Build();
    AllocSnapshot A0 = allocSnapshot();
    AllocStats S = Compile(*M, R.Instrs);
    AllocSnapshot DA = allocSnapshot() - A0;
    uint64_t Peak = Rss.stop();
    if (S.WallSeconds < R.WallSeconds) {
      R.WallSeconds = S.WallSeconds;
      R.AllocCount = DA.Count;
      R.FootprintBytes = Peak - std::min(Peak, Base);
      R.PeakRssBytes = Peak;
    }
  }
  return R;
}

/// Build the whole module in memory, then compile it. The resident
/// pipeline's footprint includes the whole module.
Record measureBigResident(const BigModuleOptions &Opts, AllocatorKind K,
                          unsigned Threads, const TargetDesc &TD) {
  ExecOptions EO;
  EO.Threads = Threads;
  return bestOfTwo([&] { return buildBigModule(Opts); },
                   [&](Module &M, uint64_t &Instrs) {
                     Instrs = 0;
                     for (const auto &F : M.functions())
                       Instrs += F->numInstrs();
                     return compileModule(M, TD, K, {}, EO);
                   });
}

/// The same module through the streaming pipeline: only the shell is
/// resident; each body is generated, compiled, emitted (instruction-counted
/// here) and released. Peak RSS must stay bounded by the in-flight window,
/// not grow with the module.
Record measureBigStreaming(const BigModuleOptions &Opts, AllocatorKind K,
                           unsigned Threads, const TargetDesc &TD) {
  ExecOptions EO;
  EO.Threads = Threads;
  BigModuleGenerator Gen(Opts);
  auto Compile = [&](Module &M, uint64_t &Instrs) {
    std::atomic<uint64_t> In{0};
    uint64_t Out = 0;
    AllocStats S = compileModuleStreaming(
        M, TD, K,
        [&](Module &Mod, unsigned I) {
          Gen.buildBody(Mod, I);
          In.fetch_add(Mod.function(I).numInstrs(),
                       std::memory_order_relaxed);
        },
        [&](unsigned, const Function &F) { Out += F.numInstrs(); },
        {}, EO);
    if (Out < In.load()) {
      std::fprintf(stderr, "error: streaming emitted fewer instructions "
                           "than it consumed\n");
      std::exit(1);
    }
    Instrs = In.load();
    return S;
  };
  return bestOfTwo([&] { return Gen.buildShell(); }, Compile);
}

void printRow(const char *Pipeline, AllocatorKind K, unsigned Threads,
              const Record &R) {
  std::printf("%-10s %-22s %3u %9.4f %13.2f %13.1f %9.1f\n", Pipeline,
              allocatorName(K), Threads, R.WallSeconds,
              R.Instrs ? static_cast<double>(R.AllocCount) / R.Instrs : 0.0,
              R.FootprintBytes / 1048576.0, R.PeakRssBytes / 1048576.0);
  std::fflush(stdout);
}

} // namespace

int main() {
  TargetDesc TD = TargetDesc::alphaLike();
  BigModuleOptions Big;
  Big.NumFuncs = 600;
  Big.InstrsPerFunc = 1700;
  Big.LiveWindow = 24;
  Big.BlocksPerFunc = 8;
  Big.Seed = 99;
  struct Config {
    AllocatorKind K;
    unsigned Threads;
  } Configs[] = {
      {AllocatorKind::SecondChanceBinpack, 1},
      {AllocatorKind::SecondChanceBinpack, 2},
      {AllocatorKind::SecondChanceBinpack, 4},
      {AllocatorKind::SecondChanceBinpack, 8},
      {AllocatorKind::TwoPassBinpack, 4},
      {AllocatorKind::PolettoScan, 4},
      {AllocatorKind::EbbScan, 4},
  };

  std::printf("Million-instruction scaling: %u procedures x ~%u "
              "instructions (best of 2)\nhardware threads available: %u; "
              "allocs/instr counts heap allocations%s\n\n",
              Big.NumFuncs, Big.InstrsPerFunc,
              defaultThreadCount(),
              allocProfileAvailable() ? "" : " (not counted in this build)");
  std::printf("%-10s %-22s %3s %9s %13s %13s %9s\n", "pipeline", "allocator",
              "T", "wall s", "allocs/instr", "footprint MB", "peak MB");
  std::printf("---------------------------------------------------------------"
              "-----------------------\n");
  // Streaming rows first: they must observe a heap that was never
  // stretched by a resident whole-module build, or the RSS samples would
  // measure the allocator's high-water mark instead of the pipeline's.
  for (const Config &C : Configs)
    printRow("streaming", C.K, C.Threads,
             measureBigStreaming(Big, C.K, C.Threads, TD));
  for (const Config &C : Configs)
    printRow("resident", C.K, C.Threads,
             measureBigResident(Big, C.K, C.Threads, TD));
  std::printf("\nfootprint = peak RSS - RSS after malloc_trim before the "
              "run. Streaming footprint\nis bounded by threads x chunk x "
              "window chunks of bodies, not by the module.\n");
  return 0;
}
