//===- tests/passes_test.cpp - DCE and peephole ----------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "passes/DCE.h"
#include "passes/Peephole.h"
#include "target/LowerCalls.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

TEST(DCE, RemovesDeadChains) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Live = B.movi(1);
  unsigned Dead1 = B.movi(2);
  unsigned Dead2 = B.addi(Dead1, 3); // keeps Dead1 alive until removed too
  (void)Dead2;
  B.retVal(Live);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Removed = eliminateDeadCode(M.function(0), TD);
  EXPECT_EQ(Removed, 2u);
  EXPECT_EQ(M.function(0).numInstrs(), 2u); // movi + ret
}

TEST(DCE, KeepsSideEffects) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned V = B.movi(9);
  B.store(V, B.movi(0), 3); // store is observable
  B.emitValue(V);           // emit is observable
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  eliminateDeadCode(M.function(0), TD);
  unsigned Stores = 0, Emits = 0;
  for (const Instr &I : M.function(0).entry().instrs()) {
    Stores += I.opcode() == Opcode::St;
    Emits += I.opcode() == Opcode::Emit;
  }
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Emits, 1u);
}

TEST(DCE, KeepsCallsButDropsUnusedResults) {
  Module M;
  FunctionBuilder G(M, "g", 0, 0, CallRetKind::Int);
  G.setBlock(G.newBlock("entry"));
  G.store(G.movi(1), G.movi(0), 0); // side effect inside callee
  G.retVal(G.movi(7));

  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned R = B.call(G.function(), {});
  (void)R; // unused result
  B.retVal(B.movi(0));
  TargetDesc TD = TargetDesc::alphaLike();
  eliminateDeadCode(M, TD);
  unsigned Calls = 0, CRess = 0;
  for (const Instr &I : M.function(1).entry().instrs()) {
    Calls += I.opcode() == Opcode::Call;
    CRess += I.opcode() == Opcode::CRes;
  }
  EXPECT_EQ(Calls, 1u) << "the call has side effects";
  EXPECT_EQ(CRess, 0u) << "the unused result move is dead";
}

TEST(DCE, LoopCarriedValuesSurvive) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned Acc = B.movi(0);
  unsigned I = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 5), Body, X);
  B.setBlock(Body);
  B.emit(Instr(Opcode::Add, Operand::vreg(Acc), Operand::vreg(Acc),
               Operand::imm(2)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  B.retVal(Acc);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Before = M.function(0).numInstrs();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 0u);
  EXPECT_EQ(M.function(0).numInstrs(), Before);
  RunResult R = VM(M, TD).run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 10);
}

/// Number of instructions of \p F that define virtual register \p V.
unsigned defsOf(const Function &F, unsigned V) {
  unsigned N = 0;
  for (const Block &B : F.blocks())
    for (const Instr &I : B.instrs())
      N += I.info().NumDefs == 1 && I.op(0).isVReg() && I.op(0).vregId() == V;
  return N;
}

Instr addImm(unsigned Dst, unsigned Src, int64_t Imm) {
  return Instr(Opcode::Add, Operand::vreg(Dst), Operand::vreg(Src),
               Operand::imm(Imm));
}

TEST(DCE, SelfIncrementingCounterSurvives) {
  // C's only reader is its own increment. It is live around the loop, so
  // liveness-based DCE keeps it (faint-variable elimination would not).
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned N = B.movi(0);
  unsigned C = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, N, 5), Body, X);
  B.setBlock(Body);
  B.emit(addImm(N, N, 1));
  B.emit(addImm(C, C, 1));
  B.br(H);
  B.setBlock(X);
  B.retVal(N);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Before = M.function(0).numInstrs();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 0u);
  EXPECT_EQ(M.function(0).numInstrs(), Before);
  EXPECT_EQ(defsOf(M.function(0), C), 2u);
}

TEST(DCE, DeadChainAcrossBackEdgeIsRemoved) {
  // In the loop body C reads B and B reads A, each from the previous
  // iteration, and nothing reads C. One liveness sweep removes only C's
  // defs; B's and then A's die in later sweeps. All of them must go.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned VA = B.movi(0);
  unsigned VB = B.movi(0);
  unsigned VC = B.movi(0);
  unsigned I = B.movi(0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 5), Body, X);
  B.setBlock(Body);
  B.emit(addImm(VC, VB, 1));
  B.emit(addImm(VB, VA, 1));
  B.emit(Instr(Opcode::MovI, Operand::vreg(VA), Operand::imm(7)));
  B.emit(addImm(I, I, 1));
  B.br(H);
  B.setBlock(X);
  B.retVal(I);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Before = M.function(0).numInstrs();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 6u);
  EXPECT_EQ(M.function(0).numInstrs(), Before - 6);
  for (unsigned V : {VA, VB, VC})
    EXPECT_EQ(defsOf(M.function(0), V), 0u) << "v" << V;
  RunResult R = VM(M, TD).run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 5);
}

TEST(DCE, OverwrittenDefIsRemovedAndLaterDefKept) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned V = B.movi(1);
  B.emit(Instr(Opcode::MovI, Operand::vreg(V), Operand::imm(2)));
  B.retVal(V);
  TargetDesc TD = TargetDesc::alphaLike();
  EXPECT_EQ(eliminateDeadCode(M.function(0), TD), 1u);
  ASSERT_EQ(defsOf(M.function(0), V), 1u);
  const Instr &Def = M.function(0).entry().instrs()[0];
  EXPECT_EQ(Def.opcode(), Opcode::MovI);
  EXPECT_EQ(Def.op(1).immValue(), 2);
  RunResult R = VM(M, TD).run("f");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ReturnValue, 2);
}

TEST(Peephole, RemovesSelfMovesAndNops) {
  Module M;
  Function &F = M.addFunction("f");
  F.CallsLowered = true;
  Block &E = F.addBlock("entry");
  E.append(Instr(Opcode::Mov, Operand::preg(intReg(3)),
                 Operand::preg(intReg(3)))); // self-move
  E.append(Instr(Opcode::FMov, Operand::preg(fpReg(2)),
                 Operand::preg(fpReg(2)))); // fp self-move
  E.append(Instr(Opcode::Mov, Operand::preg(intReg(3)),
                 Operand::preg(intReg(4)))); // real move: kept
  E.append(Instr(Opcode::Nop));
  E.append(Instr(Opcode::Ret));
  EXPECT_EQ(runPeephole(F), 3u);
  EXPECT_EQ(F.numInstrs(), 2u);
  EXPECT_EQ(E.instrs()[0].opcode(), Opcode::Mov);
}

TEST(Peephole, LeavesVRegMovesAlone) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(1);
  unsigned Y = B.mov(X); // vreg-to-vreg move, distinct regs
  B.retVal(Y);
  EXPECT_EQ(runPeephole(B.function()), 0u);
}

} // namespace
