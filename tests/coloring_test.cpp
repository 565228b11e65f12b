//===- tests/coloring_test.cpp - George/Appel IRC unit tests --------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "check/Clone.h"
#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/Builder.h"
#include "ir/IRVerifier.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "regalloc/Coloring.h"
#include "target/LowerCalls.h"
#include "workloads/SyntheticModule.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsra;

namespace {

TEST(Coloring, TrivialFunctionColorsInOneRound) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned A = B.movi(1);
  unsigned C = B.movi(2);
  B.retVal(B.add(A, C));
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runGraphColoring(M.function(0), TD, Opts);
  // One round per register class.
  EXPECT_EQ(S.ColoringIterations, 2u);
  EXPECT_EQ(S.staticSpillInstrs(), 0u);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
}

TEST(Coloring, InterferingValuesGetDistinctRegisters) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned A = B.movi(1);
  unsigned C = B.movi(2);
  unsigned D = B.movi(3);
  unsigned S1 = B.add(A, C);
  unsigned S2 = B.add(S1, D);
  B.retVal(S2);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  runGraphColoring(M.function(0), TD, Opts);
  // A, C, D are simultaneously live at `add A, C`: their registers differ.
  const auto &Instrs = M.function(0).entry().instrs();
  // Find the first add and check operand registers are distinct.
  for (const Instr &I : Instrs)
    if (I.opcode() == Opcode::Add && I.op(1).isPReg() && I.op(2).isPReg()) {
      EXPECT_NE(I.op(1).pregId(), I.op(2).pregId());
      break;
    }
}

TEST(Coloring, CoalescesParameterMoves) {
  Module M;
  FunctionBuilder B(M, "f", 2, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  B.retVal(B.add(B.intParam(0), B.intParam(1)));
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats S = runGraphColoring(M.function(0), TD, Opts);
  EXPECT_GE(S.MovesCoalesced, 2u) << "both parameter moves coalesce";
  unsigned SelfMoves = 0;
  for (const Instr &I : M.function(0).entry().instrs())
    SelfMoves += I.isRegMove() && I.op(0) == I.op(1);
  EXPECT_GE(SelfMoves, 2u);
}

TEST(Coloring, SpillsUnderPressureAndConverges) {
  // 6 simultaneously-live values, 3 registers: must spill and then color.
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  std::vector<unsigned> Vals;
  for (int I = 0; I < 6; ++I)
    Vals.push_back(B.movi(I * 10));
  unsigned S = Vals[0];
  for (int I = 5; I >= 1; --I)
    S = B.add(S, Vals[I]);
  B.retVal(S);
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(3, 3);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats St = runGraphColoring(M.function(0), TD, Opts);
  EXPECT_GE(St.SpilledTemps, 1u);
  EXPECT_GE(St.EvictLoads, 1u);
  EXPECT_GE(St.EvictStores, 1u);
  EXPECT_GE(St.ColoringIterations, 3u); // at least one respill round
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "") << toString(M.function(0), &M);
}

TEST(Coloring, CallerSavedAvoidedAcrossCalls) {
  // A value live across a call must land in a callee-saved register (the
  // call clobbers all caller-saved ones).
  Module M;
  FunctionBuilder G(M, "g", 0, 0, CallRetKind::None);
  G.setBlock(G.newBlock("entry"));
  G.retVoid();

  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned V = B.movi(42);
  B.call(G.function(), {});
  B.retVal(V); // V live across the call
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  runGraphColoring(M.function(1), TD, Opts);
  // Find the lowered `mov $0, <reg>` before ret; <reg> must be
  // callee-saved.
  const auto &Instrs = M.function(1).entry().instrs();
  bool Checked = false;
  for (const Instr &I : Instrs)
    if (I.opcode() == Opcode::Mov && I.op(0).isPReg() &&
        I.op(0).pregId() == TargetDesc::intRetReg() && I.op(1).isPReg() &&
        I.op(1).pregId() != TargetDesc::intRetReg()) {
      EXPECT_TRUE(TD.isCalleeSaved(I.op(1).pregId()))
          << toString(M.function(1), &M);
      Checked = true;
    }
  // (If the value was coalesced straight into a callee-saved register the
  // check above ran; if everything collapsed it is fine too.)
  (void)Checked;
}

TEST(Coloring, InterferenceEdgesReported) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  std::vector<unsigned> Vals;
  for (int I = 0; I < 10; ++I)
    Vals.push_back(B.movi(I));
  unsigned S = Vals[0];
  for (int I = 9; I >= 1; --I)
    S = B.add(S, Vals[I]);
  B.retVal(S);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats St = runGraphColoring(M.function(0), TD, Opts);
  // 10 mutually-live temps: at least C(10,2) = 45 edges.
  EXPECT_GE(St.InterferenceEdges, 45u);
}

TEST(Coloring, BothClassesAllocatedIndependently) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned I1 = B.movi(1);
  unsigned F1 = B.movf(1.5);
  unsigned F2 = B.fadd(F1, F1);
  B.femitValue(F2);
  B.retVal(I1);
  TargetDesc TD = TargetDesc::alphaLike();
  lowerCalls(M);
  AllocOptions Opts;
  runGraphColoring(M.function(0), TD, Opts);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
  // fp values ended in fp registers.
  for (const Instr &I : M.function(0).entry().instrs())
    if (I.opcode() == Opcode::FAdd) {
      EXPECT_EQ(pregClass(I.op(0).pregId()), RegClass::Float);
    }
}

TEST(Coloring, DeepPressureStillTerminates) {
  // A regression guard for the "spilled vregs haunt stale liveness" bug:
  // heavy fp pressure inside a loop must converge in a few rounds.
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &H = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &X = B.newBlock("exit");
  B.setBlock(E);
  unsigned I = B.movi(0);
  unsigned Acc = B.movf(0.0);
  B.br(H);
  B.setBlock(H);
  B.cbr(B.cmpi(Opcode::CmpLt, I, 3), Body, X);
  B.setBlock(Body);
  std::vector<unsigned> Vals;
  for (int K = 0; K < 12; ++K)
    Vals.push_back(B.movf(K * 0.5));
  unsigned S = Vals[0];
  for (int K = 11; K >= 1; --K)
    S = B.fadd(S, Vals[K]);
  B.emit(Instr(Opcode::FAdd, Operand::vreg(Acc), Operand::vreg(Acc),
               Operand::vreg(S)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(H);
  B.setBlock(X);
  B.femitValue(Acc);
  B.retVal(B.movi(0));

  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(4, 4);
  lowerCalls(M);
  AllocOptions Opts;
  AllocStats St = runGraphColoring(M.function(0), TD, Opts);
  EXPECT_LE(St.ColoringIterations, 12u);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  EXPECT_EQ(verifyModule(M, VO), "");
}

TEST(Coloring, GraphPastSixtyFiveThousandNodes) {
  // 22,000 candidates in one procedure at 8+8 registers: spill temporaries
  // take one class's interference graph past 65,536 nodes, where the bit
  // matrix's N*(N+1)/2 no longer fits 32 bits.
  std::unique_ptr<Module> Orig = buildScaledModule({1, 22000, 48, 10, 22});
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(8, 8);
  lowerCalls(*Orig);
  eliminateDeadCode(*Orig, TD);
  std::unique_ptr<Module> M = cloneModule(*Orig);
  AllocStats S = allocateModule(*M, TD, AllocatorKind::GraphColoring);
  unsigned MaxNodes = 0;
  for (unsigned I = 0; I < M->numFunctions(); ++I) {
    const Function &F = M->function(I);
    for (RegClass RC : {RegClass::Int, RegClass::Float}) {
      unsigned Nodes = TD.numAllocatable(RC);
      for (unsigned V = 0; V < F.numVRegs(); ++V)
        Nodes += F.vregClass(V) == RC;
      MaxNodes = std::max(MaxNodes, Nodes);
    }
  }
  EXPECT_GT(MaxNodes, 65536u);
  EXPECT_GT(S.SpilledTemps, 0u);
  EXPECT_EQ(checkAllocated(*M), "");
  check::VerifyAllocResult VR = check::verifyAllocation(*Orig, *M, TD);
  EXPECT_TRUE(VR.ok()) << VR.str();

  RunResult Ref = runReference(*Orig, TD);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  RunResult Got = runAllocated(*M, TD);
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Ref.Output, Got.Output);
  EXPECT_EQ(Ref.ReturnValue, Got.ReturnValue);
}

} // namespace
