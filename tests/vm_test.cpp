//===- tests/vm_test.cpp - Interpreter semantics ---------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Builder.h"
#include "ir/Parser.h"
#include "target/LowerCalls.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

TargetDesc TD() { return TargetDesc::alphaLike(); }

int64_t evalBinop(Opcode Op, int64_t A, int64_t B2) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(A);
  unsigned Y = B.movi(B2);
  unsigned R = B.binop(Op, X, Y);
  B.retVal(R);
  TargetDesc T = TD();
  VM Machine(M, T);
  RunResult Res = Machine.run();
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.ReturnValue;
}

TEST(VM, IntegerArithmetic) {
  EXPECT_EQ(evalBinop(Opcode::Add, 3, 4), 7);
  EXPECT_EQ(evalBinop(Opcode::Sub, 3, 4), -1);
  EXPECT_EQ(evalBinop(Opcode::Mul, -3, 4), -12);
  EXPECT_EQ(evalBinop(Opcode::Div, 7, 2), 3);
  EXPECT_EQ(evalBinop(Opcode::Div, -7, 2), -3);
  EXPECT_EQ(evalBinop(Opcode::Rem, 7, 3), 1);
  EXPECT_EQ(evalBinop(Opcode::And, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(evalBinop(Opcode::Or, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(evalBinop(Opcode::Xor, 0b1100, 0b1010), 0b0110);
  EXPECT_EQ(evalBinop(Opcode::Shl, 3, 4), 48);
  EXPECT_EQ(evalBinop(Opcode::Shr, 48, 4), 3);
  EXPECT_EQ(evalBinop(Opcode::CmpLt, 2, 3), 1);
  EXPECT_EQ(evalBinop(Opcode::CmpLt, 3, 3), 0);
  EXPECT_EQ(evalBinop(Opcode::CmpLe, 3, 3), 1);
  EXPECT_EQ(evalBinop(Opcode::CmpGt, 4, 3), 1);
  EXPECT_EQ(evalBinop(Opcode::CmpGe, 3, 4), 0);
  EXPECT_EQ(evalBinop(Opcode::CmpEq, 5, 5), 1);
  EXPECT_EQ(evalBinop(Opcode::CmpNe, 5, 5), 0);
}

TEST(VM, IntegerOverflowWraps) {
  EXPECT_EQ(evalBinop(Opcode::Add, INT64_MAX, 1), INT64_MIN);
  EXPECT_EQ(evalBinop(Opcode::Sub, INT64_MIN, 1), INT64_MAX);
  EXPECT_EQ(evalBinop(Opcode::Mul, INT64_MAX, 2), -2);
  EXPECT_EQ(evalBinop(Opcode::Mul, int64_t(1) << 62, 4), 0);
  EXPECT_EQ(evalBinop(Opcode::Div, INT64_MIN, -1), INT64_MIN); // saturates
  EXPECT_EQ(evalBinop(Opcode::Rem, INT64_MIN, -1), 0);

  // Negating INT64_MIN wraps back to itself.
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  B.retVal(B.neg(B.movi(INT64_MIN)));
  TargetDesc T = TD();
  VM Machine(M, T);
  RunResult Res = Machine.run();
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.ReturnValue, INT64_MIN);
}

TEST(VM, DivisionByZeroTraps) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movi(1);
  unsigned Z = B.movi(0);
  B.retVal(B.div(X, Z));
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(VM, FloatingPointAndConversions) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned X = B.movf(2.5);
  unsigned Y = B.movf(4.0);
  B.femitValue(B.fadd(X, Y));  // 6.5
  B.femitValue(B.fsub(X, Y));  // -1.5
  B.femitValue(B.fmul(X, Y));  // 10.0
  B.femitValue(B.fdiv(Y, X));  // 1.6
  B.femitValue(B.fneg(X));     // -2.5
  B.emitValue(B.fcmp(Opcode::FCmpLt, X, Y)); // 1
  B.emitValue(B.ftoi(X));      // 2
  B.femitValue(B.itof(B.movi(-3))); // -3.0
  B.retVal(B.movi(0));
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  auto AsD = [](uint64_t Bits) {
    double D;
    __builtin_memcpy(&D, &Bits, sizeof(D));
    return D;
  };
  ASSERT_EQ(R.Output.size(), 8u);
  EXPECT_DOUBLE_EQ(AsD(R.Output[0]), 6.5);
  EXPECT_DOUBLE_EQ(AsD(R.Output[1]), -1.5);
  EXPECT_DOUBLE_EQ(AsD(R.Output[2]), 10.0);
  EXPECT_DOUBLE_EQ(AsD(R.Output[3]), 1.6);
  EXPECT_DOUBLE_EQ(AsD(R.Output[4]), -2.5);
  EXPECT_EQ(R.Output[5], 1u);
  EXPECT_EQ(R.Output[6], 2u);
  EXPECT_DOUBLE_EQ(AsD(R.Output[7]), -3.0);
}

TEST(VM, MemoryAndSlots) {
  Module M;
  M.initWord(5, 77);
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Base = B.movi(0);
  unsigned V = B.load(Base, 5);
  B.store(B.addi(V, 1), Base, 6);
  unsigned W = B.load(Base, 6);
  unsigned Slot = B.function().newSlot(RegClass::Int);
  B.emit(Instr(Opcode::StSlot, Operand::vreg(W), Operand::slot(Slot)));
  unsigned X = B.function().newVReg(RegClass::Int);
  B.emit(Instr(Opcode::LdSlot, Operand::vreg(X), Operand::slot(Slot)));
  B.retVal(X);
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 78);
}

TEST(VM, OutOfBoundsLoadTraps) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Base = B.movi(1 << 30);
  B.retVal(B.load(Base, 0));
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(VM, CallsThroughBothConventions) {
  // Run the same call both unlowered (pending-arg buffers) and lowered
  // (argument registers); results must agree.
  for (bool Lower : {false, true}) {
    Module M;
    FunctionBuilder G(M, "add3", 3, 0, CallRetKind::Int);
    G.setBlock(G.newBlock("entry"));
    unsigned S = G.add(G.intParam(0), G.intParam(1));
    G.retVal(G.add(S, G.intParam(2)));

    FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
    B.setBlock(B.newBlock("entry"));
    unsigned R =
        B.call(G.function(), {B.movi(100), B.movi(20), B.movi(3)});
    B.retVal(R);
    TargetDesc T = TD();
    if (Lower)
      lowerCalls(M);
    RunResult Res = VM(M, T).run();
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.ReturnValue, 123);
  }
}

TEST(VM, RecursionAndDepthLimit) {
  Module M;
  FunctionBuilder F(M, "fib", 1, 0, CallRetKind::Int);
  {
    F.setBlock(F.newBlock("entry"));
    unsigned N = F.intParam(0);
    Block &BaseB = F.newBlock("base");
    Block &Rec = F.newBlock("rec");
    unsigned Small = F.cmpi(Opcode::CmpLt, N, 2);
    F.cbr(Small, BaseB, Rec);
    F.setBlock(BaseB);
    F.retVal(N);
    F.setBlock(Rec);
    unsigned A = F.call(F.function(), {F.subi(N, 1)});
    unsigned B2 = F.call(F.function(), {F.subi(N, 2)});
    F.retVal(F.add(A, B2));
  }
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  B.retVal(B.call(F.function(), {B.movi(15)}));
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue, 610);

  VM::Options Shallow;
  Shallow.MaxCallDepth = 4;
  RunResult R2 = VM(M, T, Shallow).run();
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("call depth"), std::string::npos);
}

TEST(VM, InstructionBudget) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  Block &E = B.newBlock("entry");
  Block &Loop = B.newBlock("loop");
  B.setBlock(E);
  B.br(Loop);
  B.setBlock(Loop);
  B.br(Loop); // infinite
  TargetDesc T = TD();
  VM::Options O;
  O.MaxInstrs = 1000;
  RunResult R = VM(M, T, O).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
  EXPECT_EQ(R.Stats.Total, 1000u); // the budget is the most it executes
}

// A reference run (`lsra run --no-alloc`, `lsra compare`, the benches) has
// the budget of every checked run: a module that spins stops after
// RunInstrBudget instructions, not after the VM's default of 2e9.
TEST(VM, ReferenceRunStopsAtRunBudget) {
  ParseResult P =
      parseModule("func main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
                  "bb0 (entry):\n"
                  "  movi %0, 0\n"
                  "  br bb1\n"
                  "bb1 (loop):\n"
                  "  add %0, %0, 1\n"
                  "  br bb1\n");
  ASSERT_TRUE(P.ok()) << P.Error;
  TargetDesc T = TD();
  RunResult R = runReference(*P.M, T);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("instruction budget exceeded"), std::string::npos)
      << R.Error;
  EXPECT_LE(R.Stats.Total, RunInstrBudget);
}

TEST(VM, PoisonCatchesCallerSavedReliance) {
  // Hand-written *wrong* allocated code: keeps a value in caller-saved $1
  // across a call. Without poisoning it happens to work; with poisoning
  // the result changes.
  Module M;
  FunctionBuilder G(M, "leaf", 0, 0, CallRetKind::None);
  G.setBlock(G.newBlock("entry"));
  G.emit(Instr(Opcode::Ret));
  G.function().CallsLowered = true;

  Function &F = M.addFunction("main");
  F.RetKind = CallRetKind::Int;
  F.CallsLowered = true;
  Block &E = F.addBlock("entry");
  E.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(42)));
  Instr CallI(Opcode::Call, Operand::func(G.function().id()));
  E.append(CallI);
  E.append(Instr(Opcode::Mov, Operand::preg(TargetDesc::intRetReg()),
                 Operand::preg(intReg(1))));
  E.append(Instr(Opcode::Ret, Operand::preg(TargetDesc::intRetReg())));

  TargetDesc T = TD();
  RunResult Plain = VM(M, T).run();
  ASSERT_TRUE(Plain.Ok);
  EXPECT_EQ(Plain.ReturnValue, 42);

  VM::Options Poison;
  Poison.PoisonCallerSaved = true;
  RunResult Poisoned = VM(M, T, Poison).run();
  ASSERT_TRUE(Poisoned.Ok);
  EXPECT_NE(Poisoned.ReturnValue, 42) << "poisoning must expose the bug";
}

TEST(VM, CalleeSavedContractChecked) {
  // A callee that tramples $9 without saving it.
  Module M;
  Function &G = M.addFunction("bad");
  G.CallsLowered = true;
  Block &GB = G.addBlock("entry");
  GB.append(Instr(Opcode::MovI, Operand::preg(intReg(9)), Operand::imm(7)));
  GB.append(Instr(Opcode::Ret));

  Function &F = M.addFunction("main");
  F.RetKind = CallRetKind::Int;
  F.CallsLowered = true;
  Block &E = F.addBlock("entry");
  E.append(Instr(Opcode::Call, Operand::func(G.id())));
  E.append(Instr(Opcode::MovI, Operand::preg(TargetDesc::intRetReg()),
                 Operand::imm(0)));
  E.append(Instr(Opcode::Ret, Operand::preg(TargetDesc::intRetReg())));

  TargetDesc T = TD();
  VM::Options Check;
  Check.CheckCalleeSaved = true;
  RunResult R = VM(M, T, Check).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("callee-saved"), std::string::npos);
}

TEST(VM, SpillKindAccounting) {
  Module M;
  FunctionBuilder B(M, "main", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned Slot = B.function().newSlot(RegClass::Int);
  unsigned V = B.movi(5);
  Instr St(Opcode::StSlot, Operand::vreg(V), Operand::slot(Slot));
  St.Spill = SpillKind::EvictStore;
  B.emit(St);
  unsigned W = B.function().newVReg(RegClass::Int);
  Instr Ld(Opcode::LdSlot, Operand::vreg(W), Operand::slot(Slot));
  Ld.Spill = SpillKind::ResolveLoad;
  B.emit(Ld);
  B.retVal(W);
  TargetDesc T = TD();
  RunResult R = VM(M, T).run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Stats.kind(SpillKind::EvictStore), 1u);
  EXPECT_EQ(R.Stats.kind(SpillKind::ResolveLoad), 1u);
  EXPECT_EQ(R.Stats.spillInstrs(), 2u);
  EXPECT_GT(R.Stats.spillPercent(), 0.0);
  EXPECT_GT(R.Stats.Cycles, R.Stats.Total); // loads cost extra cycles
}

} // namespace
