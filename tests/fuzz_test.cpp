//===- tests/fuzz_test.cpp - Differential fuzz report order ---------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// runDifferentialFuzz checks programs on several threads but must report
// exactly what one thread reports: the same findings, progress lines,
// MaxFindings cut-off and reductions, in program order. A deliberately
// wrong backend, registered only in this test binary, gives it findings
// to order.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "ir/Module.h"
#include "regalloc/Registry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

using namespace lsra;
using namespace lsra::check;

namespace {

constexpr AllocatorKind Broken = static_cast<AllocatorKind>(5);

/// Second-chance binpacking with one fault in `main` when its block count
/// is a multiple of three: the first instruction that reads two different
/// registers reads them swapped.
AllocStats runBroken(Function &F, const TargetDesc &TD, const AllocOptions &AO,
                     FunctionAnalyses &FA) {
  const AllocatorInfo &Binpack =
      AllocatorRegistry::global().info(AllocatorKind::SecondChanceBinpack);
  AllocStats Stats = Binpack.Run(F, TD, AO, FA);
  if (F.name() != "main" || F.numBlocks() % 3 != 0)
    return Stats;
  for (Block &B : F.blocks())
    for (Instr &I : B.instrs()) {
      const OpcodeInfo &Info = I.info();
      if (Info.NumUses < 2)
        continue;
      Operand &A = I.op(Info.NumDefs);
      Operand &C = I.op(Info.NumDefs + 1);
      if (A.isPReg() && C.isPReg() && A.pregId() != C.pregId()) {
        std::swap(A, C);
        return Stats;
      }
    }
  return Stats;
}

/// Append the broken backend to this process's registry, once.
void registerBroken() {
  static const bool Registered = [] {
    const AllocatorRegistry &R = AllocatorRegistry::global();
    // The registry object itself is not const; global() only hands out a
    // read-only view of it.
    const_cast<AllocatorRegistry &>(R).add(
        {Broken, "broken-binpack", {},
         R.info(AllocatorKind::SecondChanceBinpack).Caps, runBroken});
    return true;
  }();
  ASSERT_TRUE(Registered);
}

struct FuzzRun {
  FuzzReport Report;
  std::string Progress;
};

FuzzRun fuzz(FuzzOptions FO, unsigned Threads) {
  FO.Threads = Threads;
  std::ostringstream OS;
  FuzzRun R;
  R.Report = runDifferentialFuzz(FO, &OS);
  R.Progress = OS.str();
  return R;
}

void expectSameRun(const FuzzRun &A, const FuzzRun &B) {
  EXPECT_EQ(A.Report.Programs, B.Report.Programs);
  EXPECT_EQ(A.Report.Runs, B.Report.Runs);
  ASSERT_EQ(A.Report.Findings.size(), B.Report.Findings.size());
  for (size_t I = 0; I < A.Report.Findings.size(); ++I) {
    const FuzzFinding &X = A.Report.Findings[I], &Y = B.Report.Findings[I];
    EXPECT_EQ(X.Seed, Y.Seed) << "finding " << I;
    EXPECT_EQ(X.Regs, Y.Regs) << "finding " << I;
    EXPECT_EQ(X.K, Y.K) << "finding " << I;
    EXPECT_EQ(X.SpillCleanup, Y.SpillCleanup) << "finding " << I;
    EXPECT_EQ(X.Kind, Y.Kind) << "finding " << I;
    EXPECT_EQ(X.Detail, Y.Detail) << "finding " << I;
    EXPECT_TRUE(X.Program == Y.Program) << "finding " << I;
    EXPECT_TRUE(X.Reduced == Y.Reduced) << "finding " << I;
  }
  EXPECT_EQ(A.Progress, B.Progress);
}

FuzzOptions brokenGrid() {
  FuzzOptions FO;
  FO.SeedStart = 1;
  FO.Count = 30;
  FO.Allocators = {AllocatorKind::SecondChanceBinpack, Broken};
  FO.Reduce = false;
  FO.MaxFindings = 1000;
  return FO;
}

TEST(FuzzOrder, FindingsAndProgressDoNotDependOnThreads) {
  registerBroken();
  FuzzOptions FO = brokenGrid();
  FuzzRun One = fuzz(FO, 1);
  FuzzRun Four = fuzz(FO, 4);
  // Some programs fail and some pass, in both the oracle grid and the
  // cache differential, so the order of the two lanes is exercised.
  unsigned Oracle = 0, Cache = 0;
  for (const FuzzFinding &F : One.Report.Findings) {
    EXPECT_EQ(F.K, Broken);
    ++(F.Kind == "cache-differential" ? Cache : Oracle);
  }
  EXPECT_GT(Oracle, 0u);
  EXPECT_GT(Cache, 0u);
  EXPECT_LT(One.Report.Findings.size(), One.Report.Runs / 4);
  EXPECT_EQ(One.Report.Programs, FO.Count);
  expectSameRun(One, Four);
}

TEST(FuzzOrder, CutOffAndReductionsFollowProgramOrder) {
  registerBroken();
  FuzzOptions FO = brokenGrid();
  FO.MaxFindings = 3;
  FO.Reduce = true;
  // Small programs keep the reductions quick.
  FO.Program.Statements = 12;
  FO.Program.MaxDepth = 2;
  FO.Program.HelperFuncs = 0;
  FuzzRun One = fuzz(FO, 1);
  FuzzRun Four = fuzz(FO, 4);
  ASSERT_EQ(One.Report.Findings.size(), 3u);
  EXPECT_LT(One.Report.Programs, FO.Count);
  EXPECT_NE(One.Progress.find("fuzz: reduced seed="), std::string::npos);
  EXPECT_LT(One.Report.Findings[0].Reduced.size(),
            One.Report.Findings[0].Program.size());
  expectSameRun(One, Four);
}

} // namespace
