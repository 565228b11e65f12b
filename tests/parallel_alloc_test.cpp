//===- tests/parallel_alloc_test.cpp --------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// Parallel allocation must be invisible: running allocateModule or
// compileModule with Threads=4 must produce byte-identical printed IR and
// identical statistics (modulo timing) to the sequential Threads=1 run,
// for every allocator kind.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "regalloc/Allocator.h"
#include "support/ParallelFor.h"
#include "support/Timer.h"
#include "target/LowerCalls.h"
#include "target/Target.h"
#include "workloads/SyntheticModule.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

using namespace lsra;

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

std::unique_ptr<Module> makeWorkload() {
  ScaledModuleOptions SO;
  SO.NumProcs = 7; // odd count: exercises uneven chunking across 4 threads
  SO.CandidatesPerProc = 160;
  SO.LiveWindow = 30;
  SO.BlocksPerProc = 6;
  SO.Seed = 42;
  return buildScaledModule(SO);
}

// Compare every statistic except the timing fields, which legitimately
// differ run to run.
void expectSameStats(const AllocStats &A, const AllocStats &B) {
  EXPECT_EQ(A.EvictLoads, B.EvictLoads);
  EXPECT_EQ(A.EvictStores, B.EvictStores);
  EXPECT_EQ(A.EvictMoves, B.EvictMoves);
  EXPECT_EQ(A.ResolveLoads, B.ResolveLoads);
  EXPECT_EQ(A.ResolveStores, B.ResolveStores);
  EXPECT_EQ(A.ResolveMoves, B.ResolveMoves);
  EXPECT_EQ(A.RegCandidates, B.RegCandidates);
  EXPECT_EQ(A.SpilledTemps, B.SpilledTemps);
  EXPECT_EQ(A.LifetimeSplits, B.LifetimeSplits);
  EXPECT_EQ(A.MovesCoalesced, B.MovesCoalesced);
  EXPECT_EQ(A.SplitEdges, B.SplitEdges);
  EXPECT_EQ(A.DataflowIterations, B.DataflowIterations);
  EXPECT_EQ(A.ColoringIterations, B.ColoringIterations);
  EXPECT_EQ(A.InterferenceEdges, B.InterferenceEdges);
}

class ParallelAllocTest : public ::testing::TestWithParam<AllocatorKind> {};

TEST_P(ParallelAllocTest, AllocateModuleMatchesSequential) {
  TargetDesc TD = TargetDesc::alphaLike();
  auto Seq = makeWorkload();
  auto Par = makeWorkload();
  ASSERT_EQ(printed(*Seq), printed(*Par)) << "generator must be deterministic";

  for (Module *M : {Seq.get(), Par.get()}) {
    lowerCalls(*M);
    eliminateDeadCode(*M, TD);
  }

  ExecOptions SeqExec;
  SeqExec.Threads = 1;
  ExecOptions ParExec;
  ParExec.Threads = 4;
  AllocStats SeqStats = allocateModule(*Seq, TD, GetParam(), {}, SeqExec);
  AllocStats ParStats = allocateModule(*Par, TD, GetParam(), {}, ParExec);

  EXPECT_EQ(printed(*Seq), printed(*Par));
  expectSameStats(SeqStats, ParStats);
}

TEST_P(ParallelAllocTest, CompileModuleMatchesSequential) {
  TargetDesc TD = TargetDesc::alphaLike();
  auto Seq = makeWorkload();
  auto Par = makeWorkload();

  ExecOptions SeqExec;
  SeqExec.Threads = 1;
  ExecOptions ParExec;
  ParExec.Threads = 4;
  AllocStats SeqStats = compileModule(*Seq, TD, GetParam(), {}, SeqExec);
  AllocStats ParStats = compileModule(*Par, TD, GetParam(), {}, ParExec);

  EXPECT_EQ(printed(*Seq), printed(*Par));
  expectSameStats(SeqStats, ParStats);
  EXPECT_TRUE(checkAllocated(*Par).empty()) << checkAllocated(*Par);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ParallelAllocTest,
                         ::testing::Values(AllocatorKind::SecondChanceBinpack,
                                           AllocatorKind::GraphColoring,
                                           AllocatorKind::TwoPassBinpack,
                                           AllocatorKind::PolettoScan,
                                           AllocatorKind::EbbScan),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case AllocatorKind::SecondChanceBinpack:
                             return "Binpack";
                           case AllocatorKind::GraphColoring:
                             return "Coloring";
                           case AllocatorKind::TwoPassBinpack:
                             return "TwoPass";
                           case AllocatorKind::PolettoScan:
                             return "Poletto";
                           case AllocatorKind::EbbScan:
                             return "Ebb";
                           }
                           return "Unknown";
                         });

// WallSeconds is elapsed module time set exactly once by the module-level
// driver; merging per-function (or nested allocateModule) stats must never
// sum it, or compileModule would double-count the interval it wraps.
TEST(WallSecondsTest, OperatorPlusEqualsDoesNotAccumulateWall) {
  AllocStats A, B;
  A.WallSeconds = 1.0;
  A.AllocSeconds = 0.5;
  B.WallSeconds = 2.0;
  B.AllocSeconds = 0.25;
  A += B;
  EXPECT_EQ(A.WallSeconds, 1.0);   // left operand's wall is preserved
  EXPECT_EQ(A.AllocSeconds, 0.75); // CPU time still accumulates
}

TEST(WallSecondsTest, PerFunctionStatsCarryNoWall) {
  TargetDesc TD = TargetDesc::alphaLike();
  auto M = makeWorkload();
  lowerCalls(*M);
  eliminateDeadCode(*M, TD);
  AllocStats S = allocateFunction(M->function(0), TD,
                                  AllocatorKind::SecondChanceBinpack, {});
  EXPECT_EQ(S.WallSeconds, 0.0);
  EXPECT_GT(S.AllocSeconds, 0.0);
}

TEST(WallSecondsTest, CompileModuleMeasuresWallOnce) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (unsigned Threads : {1u, 4u}) {
    auto M = makeWorkload();
    ExecOptions Exec;
    Exec.Threads = Threads;
    Timer Outer;
    Outer.start();
    AllocStats S =
        compileModule(*M, TD, AllocatorKind::SecondChanceBinpack, {}, Exec);
    Outer.stop();
    // One elapsed interval, bounded by the timer wrapped around the call;
    // a double-counted wall would typically exceed it.
    EXPECT_GT(S.WallSeconds, 0.0) << "Threads=" << Threads;
    EXPECT_LE(S.WallSeconds, Outer.seconds()) << "Threads=" << Threads;
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  constexpr unsigned N = 1000;
  std::vector<std::atomic<unsigned>> Hits(N);
  parallelFor(N, 4, [&](unsigned I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForSequentialFallback) {
  unsigned Sum = 0; // non-atomic: Threads=1 must stay on the calling thread
  parallelFor(10, 1, [&](unsigned I) { Sum += I; });
  EXPECT_EQ(Sum, 45u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(resolveThreadCount(1, 100), 1u);
  EXPECT_EQ(resolveThreadCount(4, 100), 4u);
  EXPECT_EQ(resolveThreadCount(8, 3), 3u);   // capped by work items
  EXPECT_EQ(resolveThreadCount(4, 0), 1u);   // empty module
  EXPECT_GE(resolveThreadCount(0, 100), 1u); // 0 = hardware default
}

} // namespace
