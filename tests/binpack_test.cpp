//===- tests/binpack_test.cpp - Second-chance binpacking unit tests -------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// Includes a direct reconstruction of the paper's Figure 2: with two
// registers, T1 is evicted in B2 (spill store), given a *second chance* in
// B3 (reload into a new register), and resolution inserts a store at the
// top of B3 (edge B1->B3) and a load at the bottom of B2 (edge B2->B4).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "regalloc/Binpack.h"
#include "target/LowerCalls.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

unsigned countSpill(const Function &F, SpillKind K) {
  unsigned N = 0;
  for (const lsra::Block &B : F.blocks())
    for (const Instr &I : B.instrs())
      N += I.Spill == K;
  return N;
}

TEST(Binpack, Figure2Scenario) {
  Module M;
  FunctionBuilder B(M, "fig2", 0, 0, CallRetKind::Int);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  Block &B3 = B.newBlock("B3");
  Block &B4 = B.newBlock("B4");

  B.setBlock(B1);
  unsigned T1 = B.movi(11); // i1: T1 <- ..
  B.emitValue(T1);          // i2: .. <- T1
  unsigned Cond = B.movi(1);
  B.cbr(Cond, B2, B3);

  B.setBlock(B2);
  // Three overlapping local lifetimes; with two registers and T1 live
  // through, T1 gets evicted.
  unsigned A = B.movi(1);
  unsigned C = B.movi(2);
  unsigned D = B.add(A, C);
  unsigned E = B.add(D, A);
  unsigned G = B.add(E, C);
  B.emitValue(G);
  B.br(B4);

  B.setBlock(B3);
  B.emitValue(T1); // i3: .. <- T1 (reload: second chance)
  B.emit(Instr(Opcode::MovI, Operand::vreg(T1), Operand::imm(44))); // i4
  B.br(B4);

  B.setBlock(B4);
  B.emitValue(T1);
  B.retVal(B.movi(0));

  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(2, 2);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats Stats = runSecondChanceBinpack(M.function(0), TD, Opts);

  Function &F = M.function(0);
  EXPECT_GE(Stats.EvictStores, 1u) << toString(F, &M);
  EXPECT_GE(Stats.EvictLoads, 1u);
  EXPECT_GE(Stats.LifetimeSplits, 1u);
  EXPECT_GE(Stats.ResolveStores, 1u);
  EXPECT_GE(Stats.ResolveLoads, 1u);

  // The spill store for T1 sits in B2, before the uses of the new values.
  EXPECT_GE(countSpill(F, SpillKind::EvictStore), 1u);
  bool StoreInB2 = false;
  for (const Instr &I : F.block(B2.id()).instrs())
    StoreInB2 |= I.Spill == SpillKind::EvictStore;
  EXPECT_TRUE(StoreInB2) << toString(F, &M);

  // Resolution store at the top of B3 (edge B1->B3: register vs memory).
  EXPECT_EQ(F.block(B3.id()).instrs().front().Spill, SpillKind::ResolveStore)
      << toString(F, &M);
  // Resolution load at the bottom of B2 (edge B2->B4), just before the Br.
  const auto &B2I = F.block(B2.id()).instrs();
  ASSERT_GE(B2I.size(), 2u);
  EXPECT_EQ(B2I[B2I.size() - 2].Spill, SpillKind::ResolveLoad)
      << toString(F, &M);
}

TEST(Binpack, Figure2SemanticsPreserved) {
  auto Build = [](Module &M) {
    FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
    Block &B1 = B.newBlock("B1");
    Block &B2 = B.newBlock("B2");
    Block &B3 = B.newBlock("B3");
    Block &B4 = B.newBlock("B4");
    B.setBlock(B1);
    unsigned T1 = B.movi(11);
    B.emitValue(T1);
    unsigned Cond = B.movi(1);
    B.cbr(Cond, B2, B3);
    B.setBlock(B2);
    unsigned A = B.movi(1);
    unsigned C = B.movi(2);
    unsigned D = B.add(A, C);
    B.emitValue(B.add(D, A));
    B.br(B4);
    B.setBlock(B3);
    B.emitValue(T1);
    B.emit(Instr(Opcode::MovI, Operand::vreg(T1), Operand::imm(44)));
    B.br(B4);
    B.setBlock(B4);
    B.emitValue(T1);
    B.retVal(B.movi(0));
  };
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(2, 2);
  for (bool TakeThen : {true, false}) {
    (void)TakeThen; // both paths covered by Cond variants below
  }
  // Cond = 1 (B2 path) and Cond = 0 variants.
  for (int CondVal : {1, 0}) {
    Module MRef, MAl;
    Build(MRef);
    Build(MAl);
    // Patch the condition constant.
    for (Module *Mp : {&MRef, &MAl})
      for (auto &F : Mp->functions())
        for (lsra::Block &Blk : F->blocks())
          for (Instr &I : Blk.instrs())
            if (I.opcode() == Opcode::MovI && I.op(1).immValue() == 1)
              I.op(1) = Operand::imm(CondVal);
    RunResult Ref = runReference(MRef, TD);
    ASSERT_TRUE(Ref.Ok);
    compileModule(MAl, TD, AllocatorKind::SecondChanceBinpack);
    ASSERT_TRUE(checkAllocated(MAl).empty());
    RunResult Got = runAllocated(MAl, TD);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    EXPECT_EQ(Ref.Output, Got.Output);
  }
}

TEST(Binpack, NoSpillsWhenRegistersSuffice) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned A = B.movi(1);
  unsigned C = B.movi(2);
  B.emitValue(B.add(A, C));
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  EXPECT_EQ(S.staticSpillInstrs(), 0u);
  EXPECT_EQ(S.SpilledTemps, 0u);
}

TEST(Binpack, MoveCoalescingEliminatesParameterMoves) {
  // f(a) { return a + 1; } — after lowering, `mov %a, $16` should coalesce
  // so the peephole deletes it (§2.5's Alpha parameter-move case).
  Module M;
  FunctionBuilder B(M, "f", 1, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  B.retVal(B.addi(B.intParam(0), 1));
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  EXPECT_GE(S.MovesCoalesced, 1u);
  unsigned SelfMoves = 0;
  for (const Instr &I : M.function(0).entry().instrs())
    SelfMoves += I.isRegMove() && I.op(0) == I.op(1);
  EXPECT_GE(SelfMoves, 1u) << "coalesced move becomes a self-move";
}

TEST(Binpack, MoveCoalescingRespectsConflicts) {
  // mov v <- $16 where $16 is needed for a later call argument: v must NOT
  // be coalesced onto $16 when v lives past that argument setup.
  Module M;
  FunctionBuilder Callee(M, "g", 1, 0, CallRetKind::Int);
  Callee.setBlock(Callee.newBlock("entry"));
  Callee.retVal(Callee.intParam(0));

  FunctionBuilder B(M, "f", 1, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned P = B.intParam(0); // arrives in $16
  unsigned R = B.call(Callee.function(), {B.movi(5)}); // reuses $16
  unsigned Sum = B.add(P, R); // P live across the call
  B.retVal(Sum);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  runSecondChanceBinpack(M.function(1), TD, Opts);
  // Semantics checked end-to-end elsewhere; here assert P did not land in
  // $16 at its use after the call.
  // (Simply ensure the function verifies and no operand of the final add
  // references $16.)
  const auto Instrs = M.function(1).blocks().back().instrs();
  for (const Instr &I : Instrs)
    if (I.opcode() == Opcode::Add)
      for (unsigned S2 = 1; S2 <= 2; ++S2)
        if (I.op(S2).isPReg()) {
          EXPECT_NE(I.op(S2).pregId(), TargetDesc::intArgReg(0));
        }
}

TEST(Binpack, SecondChanceWriteAvoidsReload) {
  // A spilled temporary whose next *linear* reference is a write gets a
  // register without a load (§2.3: optimistic write handling). The shape
  // needs control flow: T is evicted in B2 (live through to B4 along the
  // other path), and B3 — next in linear order — redefines it.
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  Block &B3 = B.newBlock("B3");
  Block &B4 = B.newBlock("B4");
  B.setBlock(B1);
  unsigned T = B.movi(1);
  B.emitValue(T);
  B.cbr(B.movi(1), B2, B3);
  B.setBlock(B2);
  // Pressure burst evicting T (T is live out of B2 toward B4).
  unsigned A = B.movi(2), C = B.movi(3);
  unsigned D = B.add(A, C);
  B.emitValue(B.add(D, C));
  B.br(B4);
  B.setBlock(B3);
  B.emit(Instr(Opcode::MovI, Operand::vreg(T), Operand::imm(9)));
  B.br(B4);
  B.setBlock(B4);
  B.emitValue(T);
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(2, 2);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  EXPECT_EQ(S.EvictLoads, 0u)
      << "write-after-spill must not reload (" << toString(M.function(0), &M)
      << ")";
  EXPECT_GE(S.EvictStores, 1u) << toString(M.function(0), &M);
  EXPECT_GE(S.LifetimeSplits, 1u);
}

TEST(Binpack, ConsistencySuppressesSecondStore) {
  // T is evicted, reloaded, and evicted again without being written: the
  // second eviction must not emit a store (memory is still consistent).
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned T = B.movi(7);
  B.emitValue(T);
  auto Burst = [&]() {
    unsigned A = B.movi(1), C = B.movi(2);
    unsigned D = B.add(A, C);
    B.emitValue(B.add(D, C));
  };
  Burst();          // evicts T (store #1)
  B.emitValue(T);   // reload (consistent again)
  Burst();          // evicts T again: store suppressed
  B.emitValue(T);   // reload
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(2, 2);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  EXPECT_EQ(S.EvictStores, 1u) << toString(M.function(0), &M);
  EXPECT_EQ(S.EvictLoads, 2u);
}

TEST(Binpack, EvictionPrefersDistantShallowTemporaries) {
  // Two candidates for eviction: one referenced soon, one referenced far
  // away. The far one must be chosen (fewer reloads).
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Near = B.movi(1);
  unsigned Far = B.movi(2);
  // Pressure: need a third register while Near and Far are live.
  unsigned A = B.movi(3);
  B.emitValue(B.add(A, Near)); // Near referenced immediately
  B.emitValue(Near);
  B.emitValue(Near);
  B.emitValue(Far); // Far referenced much later
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(2, 2);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  // Far is spilled once and reloaded once; Near stays put.
  EXPECT_LE(S.EvictLoads, 1u) << toString(M.function(0), &M);
}

TEST(Binpack, StatsReportCandidatesAndDataflow) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &L = B.newBlock("l");
  B.setBlock(E);
  unsigned T = B.movi(3);
  B.br(L);
  B.setBlock(L);
  B.emitValue(T);
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runSecondChanceBinpack(M.function(0), TD, Opts);
  EXPECT_EQ(S.RegCandidates, M.function(0).numVRegs());
  EXPECT_GE(S.DataflowIterations, 1u);
}

} // namespace
