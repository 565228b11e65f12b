//===- tests/ir_test.cpp - IR construction, printing, verification --------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Order.h"
#include "ir/Builder.h"
#include "ir/IRVerifier.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

std::vector<unsigned> succs(const Block &B) {
  SuccList S = B.successors();
  return {S.begin(), S.end()};
}

TEST(Operand, KindsAndAccessors) {
  EXPECT_TRUE(Operand::vreg(3).isVReg());
  EXPECT_EQ(Operand::vreg(3).vregId(), 3u);
  EXPECT_TRUE(Operand::preg(intReg(5)).isPReg());
  EXPECT_EQ(Operand::imm(-7).immValue(), -7);
  EXPECT_DOUBLE_EQ(Operand::fimm(2.5).fimmValue(), 2.5);
  EXPECT_TRUE(Operand::none().isNone());
  EXPECT_EQ(Operand::label(2).labelBlock(), 2u);
  EXPECT_EQ(Operand::slot(9).slotId(), 9u);
}

TEST(Operand, PhysicalRegisterClasses) {
  EXPECT_EQ(pregClass(intReg(0)), RegClass::Int);
  EXPECT_EQ(pregClass(fpReg(0)), RegClass::Float);
  EXPECT_EQ(fpReg(0), NumIntPRegs);
}

TEST(Opcode, InfoTableConsistency) {
  // Every opcode has a name and sane operand counts.
  for (unsigned I = 0; I < NumOpcodes; ++I) {
    const OpcodeInfo &Info = opcodeInfo(static_cast<Opcode>(I));
    EXPECT_NE(Info.Name, nullptr);
    EXPECT_LE(Info.NumDefs, 1u);
    EXPECT_LE(unsigned(Info.NumDefs) + Info.NumUses, 3u);
  }
  EXPECT_TRUE(isTerminator(Opcode::Br));
  EXPECT_TRUE(isTerminator(Opcode::CBr));
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_FALSE(isTerminator(Opcode::Call));
  EXPECT_TRUE(isCommutative(Opcode::Add));
  EXPECT_FALSE(isCommutative(Opcode::Sub));
}

TEST(Instr, SlotClassesFollowOpcode) {
  Instr I(Opcode::FCmpLt, Operand::vreg(0), Operand::vreg(1),
          Operand::vreg(2));
  EXPECT_EQ(I.slotClass(0), RegClass::Int);   // compare result
  EXPECT_EQ(I.slotClass(1), RegClass::Float); // operands
  EXPECT_EQ(I.slotClass(2), RegClass::Float);
}

TEST(Block, SuccessorsFromTerminators) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  Block &E = B.newBlock("entry");
  Block &T = B.newBlock("t");
  Block &F = B.newBlock("f");
  B.setBlock(E);
  unsigned C = B.movi(1);
  B.cbr(C, T, F);
  B.setBlock(T);
  B.retVoid();
  B.setBlock(F);
  B.br(T);

  EXPECT_EQ(succs(E), (std::vector<unsigned>{T.id(), F.id()}));
  EXPECT_TRUE(T.successors().empty());
  EXPECT_EQ(succs(F), std::vector<unsigned>{T.id()});

  auto Preds = B.function().predecessors();
  EXPECT_EQ(Preds[T.id()].size(), 2u);
  EXPECT_EQ(Preds[F.id()].size(), 1u);
}

TEST(Block, CBrWithIdenticalTargetsHasOneSuccessor) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  Block &E = B.newBlock("entry");
  Block &T = B.newBlock("t");
  B.setBlock(E);
  unsigned C = B.movi(1);
  B.cbr(C, T, T);
  B.setBlock(T);
  B.retVoid();
  EXPECT_EQ(E.successors().size(), 1u);
}

TEST(Function, SplitEdgeRedirectsTerminator) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  Block &E = B.newBlock("entry");
  Block &T = B.newBlock("t");
  Block &F = B.newBlock("f");
  B.setBlock(E);
  unsigned C = B.movi(1);
  B.cbr(C, T, F);
  B.setBlock(T);
  B.retVoid();
  B.setBlock(F);
  B.retVoid();

  Block &NewB = splitEdge(B.function(), E.id(), T.id());
  EXPECT_EQ(E.successors()[0], NewB.id());
  EXPECT_EQ(succs(NewB), std::vector<unsigned>{T.id()});
  EXPECT_TRUE(verifyFunction(B.function(), M).empty());
}

TEST(Verifier, AcceptsWellFormedFunction) {
  Module M;
  FunctionBuilder B(M, "f", 1, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.addi(B.intParam(0), 1);
  B.retVal(X);
  EXPECT_EQ(verifyFunction(B.function(), M), "");
}

TEST(Verifier, RejectsMissingTerminator) {
  Module M;
  Function &F = M.addFunction("f");
  Block &B = F.addBlock("entry");
  unsigned V = F.newVReg(RegClass::Int);
  B.append(Instr(Opcode::MovI, Operand::vreg(V), Operand::imm(1)));
  std::string Diag = verifyFunction(F, M);
  EXPECT_NE(Diag.find("terminator"), std::string::npos);
}

TEST(Verifier, RejectsClassMismatch) {
  Module M;
  Function &F = M.addFunction("f");
  Block &B = F.addBlock("entry");
  unsigned V = F.newVReg(RegClass::Float);
  // Integer add defining a float-class vreg.
  B.append(Instr(Opcode::Add, Operand::vreg(V), Operand::imm(1),
                 Operand::imm(2)));
  B.append(Instr(Opcode::Ret));
  std::string Diag = verifyFunction(F, M);
  EXPECT_NE(Diag.find("class mismatch"), std::string::npos);
}

TEST(Verifier, RejectsBadLabel) {
  Module M;
  Function &F = M.addFunction("f");
  Block &B = F.addBlock("entry");
  B.append(Instr(Opcode::Br, Operand::label(99)));
  EXPECT_FALSE(verifyFunction(F, M).empty());
}

TEST(Verifier, RequireAllocatedFlagsVirtualRegisters) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(4);
  B.retVal(X);
  VerifyOptions VO;
  VO.RequireAllocated = true;
  std::string Diag = verifyFunction(B.function(), M, VO);
  EXPECT_NE(Diag.find("virtual register"), std::string::npos);
}

TEST(Printer, RendersInstructionsReadably) {
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(42);
  unsigned Y = B.addi(X, 1);
  B.retVal(Y);
  std::string S = toString(B.function(), &M);
  EXPECT_NE(S.find("movi %0, 42"), std::string::npos);
  EXPECT_NE(S.find("add %1, %0, 1"), std::string::npos);
  EXPECT_NE(S.find("func f"), std::string::npos);
}

TEST(Printer, RendersPhysicalRegistersAndSpillTags) {
  Module M;
  Function &F = M.addFunction("f");
  F.newSlot(RegClass::Int);
  Instr I(Opcode::StSlot, Operand::preg(intReg(5)), Operand::slot(0));
  I.Spill = SpillKind::EvictStore;
  std::string S = toString(I, F, &M);
  EXPECT_NE(S.find("$5"), std::string::npos);
  EXPECT_NE(S.find("evict-store"), std::string::npos);
  Instr FI(Opcode::FMov, Operand::preg(fpReg(2)), Operand::preg(fpReg(3)));
  EXPECT_NE(toString(FI, F, &M).find("$f2"), std::string::npos);
}

TEST(Builder, CallEmitsPseudoOps) {
  Module M;
  FunctionBuilder Callee(M, "g", 2, 0, CallRetKind::Int);
  Callee.setBlock(Callee.newBlock("entry"));
  Callee.retVal(Callee.add(Callee.intParam(0), Callee.intParam(1)));

  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned A = B.movi(1), C = B.movi(2);
  unsigned R = B.call(Callee.function(), {A, C});
  B.retVal(R);

  const auto &Instrs = B.currentBlock().instrs();
  unsigned CArgs = 0, Calls = 0, CRess = 0;
  for (const Instr &I : Instrs) {
    CArgs += I.opcode() == Opcode::CArg;
    Calls += I.opcode() == Opcode::Call;
    CRess += I.opcode() == Opcode::CRes;
  }
  EXPECT_EQ(CArgs, 2u);
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(CRess, 1u);
}

TEST(Module, MemoryImageInitialisers) {
  Module M;
  M.initWord(10, -5);
  M.initDouble(11, 1.5);
  EXPECT_GE(M.InitialMemory.size(), 12u);
  EXPECT_EQ(static_cast<int64_t>(M.InitialMemory[10]), -5);
  double D;
  __builtin_memcpy(&D, &M.InitialMemory[11], sizeof(D));
  EXPECT_DOUBLE_EQ(D, 1.5);
}

} // namespace
