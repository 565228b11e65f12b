//===- tests/bigmodule_test.cpp - Million-instruction pipeline tests ------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The scaling machinery behind the million-instruction experiments: the
// BigModuleGenerator's order-independence, the streaming pipeline's
// equivalence with the resident pipeline for every allocator and thread
// count, the textual round-trip of generated modules, and the stability of
// instruction ids across the passes that rebuild block sequences.
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "passes/SpillCleanup.h"
#include "workloads/SyntheticModule.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>

using namespace lsra;

namespace {

BigModuleOptions smallBigOptions() {
  BigModuleOptions Opts;
  Opts.NumFuncs = 12;
  Opts.InstrsPerFunc = 300;
  Opts.LiveWindow = 16;
  Opts.BlocksPerFunc = 6;
  Opts.Seed = 7;
  return Opts;
}

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

std::string printedFunction(const Function &F, const Module &M) {
  std::ostringstream OS;
  printFunction(OS, F, &M);
  return OS.str();
}

} // namespace

// Bodies are deterministic in (Opts, index) alone: building them in
// reverse order yields the same module as the whole-module builder.
TEST(BigModule, BodyBuildIsOrderIndependent) {
  BigModuleOptions Opts = smallBigOptions();
  auto Whole = buildBigModule(Opts);

  BigModuleGenerator Gen(Opts);
  auto Shell = Gen.buildShell();
  for (unsigned I = Gen.numFunctions(); I-- > 0;)
    Gen.buildBody(*Shell, I);

  EXPECT_EQ(printed(*Whole), printed(*Shell));
}

// print -> parse -> print is a fixed point on generated modules.
TEST(BigModule, PrintParseFixedPoint) {
  auto M = buildBigModule(smallBigOptions());
  std::string First = printed(*M);
  ParseResult P = parseModule(First);
  ASSERT_TRUE(P.ok()) << P.Error;
  std::string Second = printed(*P.M);
  EXPECT_EQ(First, Second);
}

// The streaming pipeline (shell + on-demand bodies + releaseBody) produces
// byte-identical allocated text to the resident pipeline, for every
// allocator and independent of the worker count and chunk geometry.
TEST(BigModule, StreamingMatchesResidentForAllAllocators) {
  BigModuleOptions Opts = smallBigOptions();
  TargetDesc TD = TargetDesc::alphaLike();
  AllocatorKind Kinds[] = {
      AllocatorKind::SecondChanceBinpack, AllocatorKind::GraphColoring,
      AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan};
  for (AllocatorKind K : Kinds) {
    auto Resident = buildBigModule(Opts);
    compileModule(*Resident, TD, K);
    std::vector<std::string> Expected;
    for (unsigned I = 0; I < Resident->numFunctions(); ++I)
      Expected.push_back(printedFunction(Resident->function(I), *Resident));

    for (unsigned Threads : {1u, 4u}) {
      BigModuleGenerator Gen(Opts);
      auto Shell = Gen.buildShell();
      ASSERT_EQ(Shell->numFunctions(), Resident->numFunctions());
      std::vector<std::string> Got;
      ExecOptions EO;
      EO.Threads = Threads;
      StreamOptions SO;
      SO.ChunkSize = 3; // deliberately small: more merge traffic
      compileModuleStreaming(
          *Shell, TD, K,
          [&](Module &M, unsigned I) { Gen.buildBody(M, I); },
          [&](unsigned I, const Function &F) {
            // Emit arrives in strict index order.
            EXPECT_EQ(I, Got.size());
            Got.push_back(printedFunction(F, *Shell));
          },
          {}, EO, SO);
      ASSERT_EQ(Got.size(), Expected.size());
      for (unsigned I = 0; I < Got.size(); ++I)
        EXPECT_EQ(Got[I], Expected[I])
            << "allocator " << allocatorName(K) << " T=" << Threads
            << " function " << I;
    }
  }
}

// Function-cache hits rebuild each function in place, so a parallel
// streaming compile can take them while sibling workers read the function
// table (callee names for printing and remapping). Two passes through one
// cache at T=4: the first fills it, the second is all hits, and both are
// byte-identical to the resident compile. Run under LSRA_SANITIZE=thread.
TEST(BigModule, StreamingFunctionCacheHitsMatchResident) {
  BigModuleOptions Opts = smallBigOptions();
  TargetDesc TD = TargetDesc::alphaLike();
  auto Resident = buildBigModule(Opts);
  compileModule(*Resident, TD, AllocatorKind::SecondChanceBinpack);
  std::vector<std::string> Expected;
  for (unsigned I = 0; I < Resident->numFunctions(); ++I)
    Expected.push_back(printedFunction(Resident->function(I), *Resident));

  cache::CompileCache Cache;
  ExecOptions EO;
  EO.Threads = 4;
  EO.Cache = &Cache;
  StreamOptions SO;
  SO.ChunkSize = 1; // every function its own claim: most sibling overlap
  for (int Pass = 0; Pass < 2; ++Pass) {
    uint64_t HitsBefore = Cache.stats().Hits;
    BigModuleGenerator Gen(Opts);
    auto Shell = Gen.buildShell();
    std::vector<std::string> Got;
    compileModuleStreaming(
        *Shell, TD, AllocatorKind::SecondChanceBinpack,
        [&](Module &M, unsigned I) { Gen.buildBody(M, I); },
        [&](unsigned, const Function &F) {
          Got.push_back(printedFunction(F, *Shell));
        },
        {}, EO, SO);
    EXPECT_EQ(Got, Expected) << "pass " << Pass;
    uint64_t Hits = Cache.stats().Hits - HitsBefore;
    EXPECT_EQ(Hits, Pass == 0 ? 0u : uint64_t(Expected.size()))
        << "pass " << Pass;
  }
}

// The streaming pipeline at scale: 30 functions x 1,700 instructions
// (~50k) on 4 threads under binpack, every allocated function verified at
// emit time. Sized to stay fast under LSRA_SANITIZE=address.
TEST(BigModule, StreamingSmokeVerifiesEveryFunction) {
  BigModuleOptions Opts;
  Opts.NumFuncs = 30;
  Opts.InstrsPerFunc = 1700;
  Opts.LiveWindow = 24;
  Opts.BlocksPerFunc = 8;
  Opts.Seed = 5;
  BigModuleGenerator Gen(Opts);
  auto M = Gen.buildShell();
  TargetDesc TD = TargetDesc::alphaLike();
  ExecOptions EO;
  EO.Threads = 4;
  VerifyOptions VO;
  VO.RequireAllocated = true;
  VO.RequireLoweredCalls = true;
  std::atomic<uint64_t> InInstrs{0};
  uint64_t OutInstrs = 0;
  unsigned Emitted = 0;
  compileModuleStreaming(
      *M, TD, AllocatorKind::SecondChanceBinpack,
      [&](Module &Mod, unsigned I) {
        Gen.buildBody(Mod, I);
        InInstrs.fetch_add(Mod.function(I).numInstrs(),
                           std::memory_order_relaxed);
      },
      [&](unsigned I, const Function &F) {
        EXPECT_EQ(verifyFunction(F, *M, VO), "") << "function " << I;
        OutInstrs += F.numInstrs();
        ++Emitted;
      },
      {}, EO);
  EXPECT_EQ(Emitted, Gen.numFunctions());
  EXPECT_GT(InInstrs.load(), 40000u);
  // Spill code outweighs what DCE removes from these generated bodies.
  EXPECT_GE(OutInstrs, InInstrs.load());
}

// releaseBody drops the storage but keeps the callable signature.
TEST(BigModule, ReleaseBodyKeepsSignature) {
  auto M = buildBigModule(smallBigOptions());
  Function &F = M->function(0);
  std::string Name = F.name();
  unsigned IntParams = static_cast<unsigned>(F.IntParamVRegs.size());
  ASSERT_GT(F.numInstrs(), 0u);
  F.releaseBody();
  EXPECT_EQ(F.numBlocks(), 0u);
  EXPECT_EQ(F.numInstrs(), 0u);
  EXPECT_EQ(F.name(), Name);
  EXPECT_EQ(F.IntParamVRegs.size(), IntParams);
  EXPECT_FALSE(F.CallsLowered);
}

// DCE rebuilds block id sequences; the ids of surviving instructions must
// keep denoting the same pool storage.
TEST(BigModule, InstrIdsStableAcrossDCE) {
  Module M;
  Function &F = M.addFunction("f");
  Block &B = F.addBlock("entry");
  unsigned T0 = F.newVReg(RegClass::Int);
  unsigned Dead = F.newVReg(RegClass::Int);
  B.append(Instr(Opcode::MovI, Operand::vreg(T0), Operand::imm(1)));
  B.append(Instr(Opcode::MovI, Operand::vreg(Dead), Operand::imm(2)));
  B.append(Instr(Opcode::Emit, Operand::vreg(T0)));
  B.append(Instr(Opcode::Ret));
  F.CallsLowered = true;

  // Snapshot (id -> opcode) for the instructions that must survive.
  std::map<uint32_t, Opcode> Surviving;
  for (unsigned I = 0; I < B.size(); ++I)
    if (I != 1)
      Surviving[B.instrId(I)] = B.instrs()[I].opcode();

  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Removed = eliminateDeadCode(F, TD);
  EXPECT_EQ(Removed, 1u);
  ASSERT_EQ(B.size(), 3u);
  for (unsigned I = 0; I < B.size(); ++I) {
    auto It = Surviving.find(B.instrId(I));
    ASSERT_NE(It, Surviving.end()) << "id changed across DCE";
    EXPECT_EQ(It->second, B.instrs()[I].opcode());
  }
}

// SpillCleanup's load->move rewrite is 1:1 in place: the rewritten
// instruction keeps its id, deletions do not disturb the ids around them.
TEST(BigModule, InstrIdsStableAcrossSpillCleanup) {
  Module M;
  Function &F = M.addFunction("f");
  Block &B = F.addBlock("entry");
  unsigned Slot = F.newSlot(RegClass::Int);
  F.CallsLowered = true;
  B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  Instr St(Opcode::StSlot, Operand::preg(intReg(1)), Operand::slot(Slot));
  St.Spill = SpillKind::EvictStore;
  B.append(St);
  Instr Ld(Opcode::LdSlot, Operand::preg(intReg(1)), Operand::slot(Slot));
  Ld.Spill = SpillKind::EvictLoad;
  B.append(Ld); // value already in $1: deleted
  Instr Ld2(Opcode::LdSlot, Operand::preg(intReg(2)), Operand::slot(Slot));
  Ld2.Spill = SpillKind::EvictLoad;
  B.append(Ld2); // becomes a move from $1
  B.append(Instr(Opcode::Ret));

  uint32_t MovIId = B.instrId(0);
  uint32_t StId = B.instrId(1);
  uint32_t LdId = B.instrId(3); // the load that becomes a move
  uint32_t RetId = B.instrId(4);

  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(F, TD);
  EXPECT_EQ(S.LoadsToMoves, 1u);
  EXPECT_EQ(S.LoadsDeleted, 1u);
  ASSERT_EQ(B.size(), 4u);
  EXPECT_EQ(B.instrId(0), MovIId);
  EXPECT_EQ(B.instrId(1), StId);
  EXPECT_EQ(B.instrId(2), LdId) << "rewritten move must keep the load's id";
  EXPECT_EQ(B.instrs()[2].opcode(), Opcode::Mov);
  EXPECT_EQ(B.instrId(3), RetId);
}
