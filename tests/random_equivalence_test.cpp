//===- tests/random_equivalence_test.cpp - Fuzzed allocation property -----===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// Property: for seeded random programs, every allocator at every register
// limit produces code with the same observable behaviour as the
// virtual-register reference, under caller-saved poisoning and
// callee-saved checking.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

struct FuzzConfig {
  uint64_t Seed;
  AllocatorKind Kind;
  unsigned RegLimit;
};

class RandomEquivalence : public testing::TestWithParam<FuzzConfig> {};

TEST_P(RandomEquivalence, Matches) {
  const FuzzConfig &C = GetParam();
  TargetDesc TD = TargetDesc::alphaLike();
  if (C.RegLimit)
    TD = TD.withRegLimit(C.RegLimit, C.RegLimit);

  auto RefM = buildRandomProgram(C.Seed);
  RunResult Ref = runReference(*RefM, TD);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

  auto M = buildRandomProgram(C.Seed);
  compileModule(*M, TD, C.Kind);
  std::string Diag = checkAllocated(*M);
  ASSERT_TRUE(Diag.empty()) << Diag;
  RunResult Got = runAllocated(*M, TD);
  ASSERT_TRUE(Got.Ok) << "seed " << C.Seed << ": " << Got.Error;
  ASSERT_EQ(Ref.Output.size(), Got.Output.size()) << "seed " << C.Seed;
  EXPECT_EQ(Ref.Output, Got.Output) << "seed " << C.Seed;
  EXPECT_EQ(Ref.ReturnValue, Got.ReturnValue);
}

std::vector<FuzzConfig> fuzzConfigs() {
  std::vector<FuzzConfig> Cs;
  const AllocatorKind Kinds[] = {
      AllocatorKind::SecondChanceBinpack,
      AllocatorKind::GraphColoring,
      AllocatorKind::TwoPassBinpack,
      AllocatorKind::PolettoScan,
  };
  for (uint64_t Seed = 1; Seed <= 25; ++Seed)
    for (AllocatorKind K : Kinds)
      for (unsigned Limit : {0u, 10u, 5u})
        Cs.push_back({Seed, K, Limit});
  return Cs;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomEquivalence, testing::ValuesIn(fuzzConfigs()),
    [](const testing::TestParamInfo<FuzzConfig> &Info) {
      std::string Name = "s";
      Name.append(std::to_string(Info.param.Seed))
          .append("_")
          .append(allocatorName(Info.param.Kind))
          .append("_r")
          .append(std::to_string(Info.param.RegLimit));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// Larger, gnarlier programs at a handful of seeds, binpack-focused with
// option sweeps.
TEST(RandomEquivalence, BigProgramsAllBinpackOptions) {
  RandomProgramOptions RPO;
  RPO.Statements = 200;
  RPO.MaxDepth = 4;
  RPO.HelperFuncs = 3;
  for (uint64_t Seed : {101u, 202u, 303u}) {
    TargetDesc TD = TargetDesc::alphaLike().withRegLimit(6, 6);
    auto RefM = buildRandomProgram(Seed, RPO);
    RunResult Ref = runReference(*RefM, TD);
    ASSERT_TRUE(Ref.Ok) << Ref.Error;
    for (bool Esc : {false, true})
      for (auto Mode : {AllocOptions::ConsistencyMode::Iterative,
                        AllocOptions::ConsistencyMode::Conservative}) {
        auto M = buildRandomProgram(Seed, RPO);
        AllocOptions Opts;
        Opts.EarlySecondChance = Esc;
        Opts.Consistency = Mode;
        compileModule(*M, TD, AllocatorKind::SecondChanceBinpack, Opts);
        RunResult Got = runAllocated(*M, TD);
        ASSERT_TRUE(Got.Ok) << "seed " << Seed << ": " << Got.Error;
        EXPECT_EQ(Ref.Output, Got.Output) << "seed " << Seed;
      }
  }
}

TEST(RandomProgram, GeneratorIsDeterministic) {
  auto M1 = buildRandomProgram(7);
  auto M2 = buildRandomProgram(7);
  ASSERT_EQ(M1->numFunctions(), M2->numFunctions());
  EXPECT_EQ(toString(M1->function(0)), toString(M2->function(0)));
}

TEST(RandomProgram, RespectsFeatureSwitches) {
  RandomProgramOptions RPO;
  RPO.UseFloat = false;
  RPO.UseCalls = false;
  RPO.UseMemory = false;
  RPO.Statements = 120;
  auto M = buildRandomProgram(9, RPO);
  EXPECT_EQ(M->numFunctions(), 1u); // no helpers
  for (const auto &F : M->functions())
    for (const lsra::Block &B : F->blocks())
      for (const Instr &I : B.instrs()) {
        EXPECT_NE(I.opcode(), Opcode::Call);
        EXPECT_NE(I.opcode(), Opcode::FAdd);
        EXPECT_NE(I.opcode(), Opcode::Ld);
        EXPECT_NE(I.opcode(), Opcode::St);
      }
}

} // namespace
