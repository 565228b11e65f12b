//===- tests/baselines_test.cpp - Two-pass binpacking & Poletto scan ------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Builder.h"
#include "ir/IRVerifier.h"
#include "ir/Printer.h"
#include "regalloc/Poletto.h"
#include "regalloc/TwoPass.h"
#include "target/LowerCalls.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

void buildPressureLoop(Module &M, unsigned Width) {
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned I = B.movi(0);
  unsigned Acc = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 4), Body, X);
  B.setBlock(Body);
  std::vector<unsigned> Vals;
  for (unsigned K = 0; K < Width; ++K)
    Vals.push_back(B.addi(I, K));
  unsigned S = Vals[0];
  for (unsigned K = Width - 1; K >= 1; --K)
    S = B.add(S, Vals[K]);
  B.emit(Instr(Opcode::Add, Operand::vreg(Acc), Operand::vreg(Acc),
               Operand::vreg(S)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  B.emitValue(Acc);
  B.retVal(B.movi(0));
}

TEST(TwoPass, NoSpillsWhenEverythingFits) {
  Module M;
  buildPressureLoop(M, 4);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runTwoPassBinpack(M.function(0), TD, Opts);
  EXPECT_EQ(S.staticSpillInstrs(), 0u);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
}

TEST(TwoPass, SpillsWholeLifetimesUnderPressure) {
  Module M;
  buildPressureLoop(M, 10);
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(4, 4);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runTwoPassBinpack(M.function(0), TD, Opts);
  EXPECT_GE(S.SpilledTemps, 1u);
  // Every reference of a spilled temp costs a load or store: loads for
  // uses, stores for defs.
  EXPECT_GE(S.EvictLoads, S.SpilledTemps);
  EXPECT_GE(S.EvictStores, S.SpilledTemps);
  // Two-pass binpacking never produces resolution code.
  EXPECT_EQ(S.ResolveLoads + S.ResolveStores + S.ResolveMoves, 0u);
}

TEST(TwoPass, CannotUseCallerSavedAcrossCalls) {
  // The §3.1 wc effect: with temps live across a call, two-pass binpacking
  // can only use the callee-saved registers; beyond six live values it
  // must spill into the loop.
  Module M;
  FunctionBuilder G(M, "leaf", 0, 0, CallRetKind::Int);
  G.setBlock(G.newBlock("entry"));
  G.retVal(G.movi(1));

  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  std::vector<unsigned> Counters;
  for (int K = 0; K < 9; ++K)
    Counters.push_back(B.movi(K));
  unsigned I = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 8), Body, X);
  B.setBlock(Body);
  unsigned R = B.call(G.function(), {});
  for (unsigned K = 0; K < Counters.size(); ++K)
    B.emit(Instr(Opcode::Add, Operand::vreg(Counters[K]),
                 Operand::vreg(Counters[K]), Operand::vreg(R)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  for (unsigned C : Counters)
    B.emitValue(C);
  B.retVal(B.movi(0));

  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runTwoPassBinpack(M.function(1), TD, Opts);
  // 9 counters + loop counter live across the call > 6 callee-saved.
  EXPECT_GE(S.SpilledTemps, 3u) << toString(M.function(1), &M);
}

TEST(Poletto, AllocatesWithoutSpillsWhenEasy) {
  Module M;
  buildPressureLoop(M, 4);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runPolettoScan(M.function(0), TD, Opts);
  EXPECT_EQ(S.staticSpillInstrs(), 0u);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
}

TEST(Poletto, SpillsFurthestEndingInterval) {
  // LongLived spans everything; with tight registers it is the classic
  // "longest active lifetime" victim.
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Long = B.movi(99);
  std::vector<unsigned> Vals;
  for (int K = 0; K < 5; ++K)
    Vals.push_back(B.movi(K));
  unsigned S = Vals[0];
  for (int K = 4; K >= 1; --K)
    S = B.add(S, Vals[K]);
  B.emitValue(S);
  B.emitValue(Long); // far use of the long interval
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(5, 5);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats St = runPolettoScan(M.function(0), TD, Opts);
  EXPECT_GE(St.SpilledTemps, 1u);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
}

TEST(Poletto, IntervalsAcrossCallsAvoidCallerSaved) {
  Module M;
  FunctionBuilder G(M, "leaf", 0, 0, CallRetKind::None);
  G.setBlock(G.newBlock("entry"));
  G.retVoid();
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned V = B.movi(5);
  B.call(G.function(), {});
  B.retVal(V);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  runPolettoScan(M.function(1), TD, Opts);
  // V's register at its use after the call must be callee-saved (or V was
  // spilled to a scratch, also callee-saved by construction).
  const auto &Instrs = M.function(1).entry().instrs();
  for (const Instr &I : Instrs)
    if (I.opcode() == Opcode::Mov && I.op(0).isPReg() &&
        I.op(0).pregId() == TargetDesc::intRetReg() && I.op(1).isPReg() &&
        I.op(1).pregId() != TargetDesc::intRetReg()) {
      EXPECT_TRUE(TD.isCalleeSaved(I.op(1).pregId()))
          << toString(M.function(1), &M);
    }
}

TEST(Baselines, BothPreserveSemanticsOnPressureLoop) {
  for (AllocatorKind K :
       {AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan}) {
    Module MRef, MAl;
    buildPressureLoop(MRef, 12);
    buildPressureLoop(MAl, 12);
    TargetDesc TD = TargetDesc::alphaLike().withRegLimit(5, 5);
    RunResult Ref = runReference(MRef, TD);
    ASSERT_TRUE(Ref.Ok);
    compileModule(MAl, TD, K);
    ASSERT_TRUE(checkAllocated(MAl).empty());
    RunResult Got = runAllocated(MAl, TD);
    ASSERT_TRUE(Got.Ok) << allocatorName(K) << ": " << Got.Error;
    EXPECT_EQ(Ref.Output, Got.Output) << allocatorName(K);
  }
}

} // namespace
