//===- tests/check_test.cpp - Allocation verifier tests -------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Five parts. First, acceptance: the verifier must accept every allocator's
// output on the full workload corpus, at the full machine and under register
// pressure. Second, mutation: deliberately corrupt known-good allocations
// (swap a register, drop a reload, retarget a resolution move, extend a
// caller-saved value across a call, retarget a branch) and assert the
// verifier rejects each with the right error class and location. Then
// the report shape: a use that fails only once a back edge is known is
// reported once, and the error cap keeps the first errors in block order.
// Then the state representation: unreachable blocks keep their top-state
// semantics, and verification memory does not grow with declared vregs.
// Last, the prepared oracle: sharing one prepared program across grid
// points gives the verdicts of preparing it afresh for each point.
//
//===----------------------------------------------------------------------===//

#include "check/Clone.h"
#include "check/Fuzz.h"
#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "regalloc/Registry.h"
#include "passes/DCE.h"
#include "support/AllocProfile.h"
#include "target/LowerCalls.h"
#include "workloads/Workloads.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

namespace {

TargetDesc targetFor(unsigned Regs) {
  TargetDesc TD = TargetDesc::alphaLike();
  return Regs ? TD.withRegLimit(Regs, Regs) : TD;
}

constexpr AllocatorKind AllKinds[] = {
    AllocatorKind::SecondChanceBinpack, AllocatorKind::GraphColoring,
    AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan};

/// Lower + DCE a module in place (the allocator-input snapshot).
void preAlloc(Module &M, const TargetDesc &TD) {
  lowerCalls(M);
  eliminateDeadCode(M, TD);
}

struct GoodAllocation {
  std::unique_ptr<Module> Orig;  ///< allocator input
  std::unique_ptr<Module> Alloc; ///< pipeline output
  TargetDesc TD = TargetDesc::alphaLike();
};

GoodAllocation allocateWorkload(const std::string &Name, AllocatorKind K,
                                unsigned Regs,
                                const AllocOptions &AO = AllocOptions()) {
  GoodAllocation G;
  G.TD = targetFor(Regs);
  G.Orig = buildWorkload(Name);
  preAlloc(*G.Orig, G.TD);
  G.Alloc = cloneModule(*G.Orig);
  allocateModule(*G.Alloc, G.TD, K, AO);
  return G;
}

TEST(VerifierAcceptance, AllWorkloadsAllAllocators) {
  for (const WorkloadSpec &W : allWorkloads()) {
    for (AllocatorKind K : AllKinds) {
      for (unsigned Regs : {0u, 8u}) {
        GoodAllocation G = allocateWorkload(W.Name, K, Regs);
        EXPECT_EQ(checkAllocated(*G.Alloc), "");
        VerifyAllocResult R = verifyAllocation(*G.Orig, *G.Alloc, G.TD);
        EXPECT_TRUE(R.ok()) << W.Name << " " << allocatorName(K) << " regs="
                            << Regs << ":\n" << R.str();
      }
    }
  }
}

TEST(VerifierAcceptance, SpillCleanupConfiguration) {
  AllocOptions AO;
  AO.SpillCleanup = true;
  for (AllocatorKind K : AllKinds) {
    GoodAllocation G = allocateWorkload("fpppp", K, 6, AO);
    VerifyAllocResult R = verifyAllocation(*G.Orig, *G.Alloc, G.TD);
    EXPECT_TRUE(R.ok()) << allocatorName(K) << ":\n" << R.str();
  }
}

TEST(VerifierAcceptance, RandomProgramsUnderPressure) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::unique_ptr<Module> M = buildRandomProgram(Seed);
    for (AllocatorKind K : AllKinds) {
      TargetDesc TD = targetFor(6);
      auto Orig = cloneModule(*M);
      preAlloc(*Orig, TD);
      auto Alloc = cloneModule(*Orig);
      allocateModule(*Alloc, TD, K, AllocOptions());
      VerifyAllocResult R = verifyAllocation(*Orig, *Alloc, TD);
      EXPECT_TRUE(R.ok()) << "seed " << Seed << " " << allocatorName(K)
                          << ":\n" << R.str();
    }
  }
}

//===----------------------------------------------------------------------===//
// Mutation half: hand-built (orig, alloc) pairs that verify cleanly, then a
// single deliberate corruption. Each must be rejected with the exact error
// class and pinpointed location.
//===----------------------------------------------------------------------===//

/// Parallel hand-built original/allocated functions.
struct HandPair {
  Module OM, AM;
  Function &OF, &AF;
  HandPair() : OF(OM.addFunction("f")), AF(AM.addFunction("f")) {
    OF.CallsLowered = AF.CallsLowered = true;
  }
  Block &oblock(const char *N) { return OF.addBlock(N); }
  Block &ablock(const char *N) { return AF.addBlock(N); }
  unsigned vreg() { return OF.newVReg(RegClass::Int); }
  static Instr movi(Operand Dst, int64_t V) {
    return Instr(Opcode::MovI, Dst, Operand::imm(V));
  }
  static Instr spill(Opcode Op, unsigned R, unsigned S, SpillKind K) {
    Instr I(Op, Operand::preg(R), Operand::slot(S));
    I.Spill = K;
    return I;
  }
  VerifyAllocResult verify() {
    return verifyAllocation(OF, AF, TargetDesc::alphaLike());
  }
};

TEST(VerifierMutation, SwappedUseRegisterIsStaleAfterEvict) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  Block &OB = H.oblock("entry");
  OB.append(H.movi(Operand::vreg(V0), 7));
  OB.append(H.movi(Operand::vreg(V1), 9));
  OB.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB.append(Instr(Opcode::Ret));
  Block &AB = H.ablock("entry");
  AB.append(H.movi(Operand::preg(intReg(1)), 7));
  AB.append(H.movi(Operand::preg(intReg(2)), 9));
  AB.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
  AB.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  AB.instrs()[2].op(0) = Operand::preg(intReg(2)); // reads %1's register
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::StaleAfterEvict) << R.str();
  EXPECT_EQ(E.Block, 0u);
  EXPECT_EQ(E.InstrIdx, 2u);
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(2));
}

TEST(VerifierMutation, OverlappingDefRegisterIsLostValue) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  Block &OB = H.oblock("entry");
  OB.append(H.movi(Operand::vreg(V0), 7));
  OB.append(H.movi(Operand::vreg(V1), 9));
  OB.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB.append(Instr(Opcode::Ret));
  Block &AB = H.ablock("entry");
  AB.append(H.movi(Operand::preg(intReg(1)), 7));
  AB.append(H.movi(Operand::preg(intReg(2)), 9));
  AB.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
  AB.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  // The classic interference bug: %1 assigned the register still holding
  // the live %0, wiping %0 from the machine entirely.
  AB.instrs()[1].op(0) = Operand::preg(intReg(1));
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::LostValue) << R.str();
  EXPECT_EQ(E.Block, 0u);
  EXPECT_EQ(E.InstrIdx, 2u);
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(1));
}

TEST(VerifierMutation, DroppedReloadIsStaleAfterEvict) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  Block &OB = H.oblock("entry");
  OB.append(H.movi(Operand::vreg(V0), 7));
  OB.append(H.movi(Operand::vreg(V1), 9));
  OB.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB.append(Instr(Opcode::Ret));
  unsigned S0 = H.AF.newSlot(RegClass::Int);
  Block &AB = H.ablock("entry");
  AB.append(H.movi(Operand::preg(intReg(1)), 7));
  AB.append(H.spill(Opcode::StSlot, intReg(1), S0, SpillKind::EvictStore));
  AB.append(H.movi(Operand::preg(intReg(1)), 9)); // evicts %0 into its home
  AB.append(H.spill(Opcode::LdSlot, intReg(2), S0, SpillKind::EvictLoad));
  AB.append(Instr(Opcode::Emit, Operand::preg(intReg(2))));
  AB.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  AB.eraseInstr(3); // drop the reload
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::StaleAfterEvict) << R.str();
  EXPECT_EQ(E.Block, 0u);
  EXPECT_EQ(E.InstrIdx, 3u); // the Emit, after the erase
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(2));
}

TEST(VerifierMutation, ReloadFromWrongSlot) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg(), V2 = H.vreg();
  Block &OB = H.oblock("entry");
  OB.append(H.movi(Operand::vreg(V0), 7));
  OB.append(H.movi(Operand::vreg(V1), 9));
  OB.append(H.movi(Operand::vreg(V2), 1));
  OB.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB.append(Instr(Opcode::Ret));
  unsigned S0 = H.AF.newSlot(RegClass::Int);
  unsigned S1 = H.AF.newSlot(RegClass::Int);
  Block &AB = H.ablock("entry");
  AB.append(H.movi(Operand::preg(intReg(1)), 7));
  AB.append(H.spill(Opcode::StSlot, intReg(1), S0, SpillKind::EvictStore));
  AB.append(H.movi(Operand::preg(intReg(1)), 9));
  AB.append(H.spill(Opcode::StSlot, intReg(1), S1, SpillKind::EvictStore));
  AB.append(H.movi(Operand::preg(intReg(1)), 1));
  AB.append(H.spill(Opcode::LdSlot, intReg(2), S0, SpillKind::EvictLoad));
  AB.append(Instr(Opcode::Emit, Operand::preg(intReg(2))));
  AB.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  AB.instrs()[5].op(1) = Operand::slot(S1); // reload %1's home, not %0's
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::WrongSlot) << R.str();
  EXPECT_EQ(E.Block, 0u);
  EXPECT_EQ(E.InstrIdx, 6u);
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(2));
}

TEST(VerifierMutation, RetargetedResolutionMove) {
  HandPair H;
  unsigned V0 = H.vreg();
  Block &OB0 = H.oblock("b0");
  Block &OB1 = H.oblock("b1");
  OB0.append(H.movi(Operand::vreg(V0), 7));
  OB0.append(Instr(Opcode::Br, Operand::label(OB1.id())));
  OB1.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB1.append(Instr(Opcode::Ret));
  Block &AB0 = H.ablock("b0");
  Block &AB1 = H.ablock("b1");
  AB0.append(H.movi(Operand::preg(intReg(1)), 7));
  AB0.append(Instr(Opcode::Br, Operand::label(AB1.id())));
  Instr RMove(Opcode::Mov, Operand::preg(intReg(3)), Operand::preg(intReg(1)));
  RMove.Spill = SpillKind::ResolveMove;
  AB1.append(RMove);
  AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(3))));
  AB1.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  AB1.instrs()[0].op(1) = Operand::preg(intReg(2)); // copies the wrong reg
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::StaleAfterEvict) << R.str();
  EXPECT_EQ(E.Block, 1u);
  EXPECT_EQ(E.InstrIdx, 1u);
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(3));
}

TEST(VerifierMutation, CallerSavedAcrossCall) {
  HandPair H;
  // A leaf callee with the same id in both modules.
  Function &OG = H.OM.addFunction("g");
  OG.addBlock("entry").append(Instr(Opcode::Ret));
  OG.CallsLowered = true;
  Function &AG = H.AM.addFunction("g");
  AG.addBlock("entry").append(Instr(Opcode::Ret));
  AG.CallsLowered = true;

  unsigned V0 = H.vreg();
  Block &OB = H.oblock("entry");
  OB.append(H.movi(Operand::vreg(V0), 7));
  OB.append(Instr(Opcode::Call, Operand::func(OG.id())));
  OB.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB.append(Instr(Opcode::Ret));
  Block &AB = H.ablock("entry");
  AB.append(H.movi(Operand::preg(intReg(9)), 7)); // callee-saved: correct
  AB.append(Instr(Opcode::Call, Operand::func(AG.id())));
  AB.append(Instr(Opcode::Emit, Operand::preg(intReg(9))));
  AB.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  AB.instrs()[0].op(0) = Operand::preg(intReg(1)); // caller-saved instead
  AB.instrs()[2].op(0) = Operand::preg(intReg(1));
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::ClobberedAcrossCall) << R.str();
  EXPECT_EQ(E.Block, 0u);
  EXPECT_EQ(E.InstrIdx, 2u);
  EXPECT_EQ(E.VReg, V0);
  EXPECT_EQ(E.PReg, intReg(1));
}

TEST(VerifierMutation, RetargetedBranchIsUnresolvedEdge) {
  HandPair H;
  unsigned V0 = H.vreg();
  Block &OB0 = H.oblock("b0");
  Block &OB1 = H.oblock("b1");
  Block &OB2 = H.oblock("b2");
  OB0.append(H.movi(Operand::vreg(V0), 1));
  OB0.append(Instr(Opcode::CBr, Operand::vreg(V0), Operand::label(OB1.id()),
                   Operand::label(OB2.id())));
  OB1.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB1.append(Instr(Opcode::Ret));
  OB2.append(Instr(Opcode::Ret));
  Block &AB0 = H.ablock("b0");
  Block &AB1 = H.ablock("b1");
  Block &AB2 = H.ablock("b2");
  AB0.append(H.movi(Operand::preg(intReg(1)), 1));
  AB0.append(Instr(Opcode::CBr, Operand::preg(intReg(1)),
                   Operand::label(AB1.id()), Operand::label(AB2.id())));
  AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
  AB1.append(Instr(Opcode::Ret));
  AB2.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  // Swap the branch arms: the taken edges no longer mirror the original.
  AB0.instrs()[1].op(1) = Operand::label(AB2.id());
  AB0.instrs()[1].op(2) = Operand::label(AB1.id());
  VerifyAllocResult R = H.verify();
  ASSERT_FALSE(R.ok());
  const AllocError &E = R.Errors[0];
  EXPECT_EQ(E.Kind, AllocErrorKind::UnresolvedEdge) << R.str();
  EXPECT_EQ(E.Block, 0u);
}

//===----------------------------------------------------------------------===//
// Report shape: a use that fails only at the fixpoint is reported once, and
// the per-function error cap keeps the first errors in block order.
//===----------------------------------------------------------------------===//

TEST(VerifierReport, BackEdgeClobberReportedOnce) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  Block &OB0 = H.oblock("b0");
  Block &OB1 = H.oblock("loop");
  Block &OB2 = H.oblock("exit");
  OB0.append(H.movi(Operand::vreg(V0), 7));
  OB0.append(Instr(Opcode::Br, Operand::label(OB1.id())));
  OB1.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB1.append(H.movi(Operand::vreg(V1), 5));
  OB1.append(Instr(Opcode::CBr, Operand::vreg(V1), Operand::label(OB1.id()),
                   Operand::label(OB2.id())));
  OB2.append(Instr(Opcode::Ret));
  Block &AB0 = H.ablock("b0");
  Block &AB1 = H.ablock("loop");
  Block &AB2 = H.ablock("exit");
  AB0.append(H.movi(Operand::preg(intReg(1)), 7));
  AB0.append(Instr(Opcode::Br, Operand::label(AB1.id())));
  AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
  AB1.append(H.movi(Operand::preg(intReg(2)), 5));
  AB1.append(Instr(Opcode::CBr, Operand::preg(intReg(2)),
                   Operand::label(AB1.id()), Operand::label(AB2.id())));
  AB2.append(Instr(Opcode::Ret));
  ASSERT_TRUE(H.verify().ok());

  // v1 now lands in v0's register. The header's first visit sees only the
  // entry edge, so the read of v0 fails only once the back edge is known.
  AB1.instrs()[1].op(0) = Operand::preg(intReg(1));
  AB1.instrs()[2].op(0) = Operand::preg(intReg(1));
  EXPECT_EQ(H.verify().str(),
            "lost-value at f:b1[0]: use of v0: value is in no register or "
            "slot on some path (temp=v0, reg=$1, pos=4)");
}

TEST(VerifierReport, ErrorCapKeepsBlockOrder) {
  // Block ids b0, b1, b2 in layout order, but control runs b0 -> b2 -> b1,
  // with a self loop on b2: the reverse postorder is b0, b2, b1. Each block
  // reads v0 from the wrong register 12 times, 36 failing uses in all.
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  Block &OB0 = H.oblock("b0");
  Block &OB1 = H.oblock("tail");
  Block &OB2 = H.oblock("mid");
  Block &AB0 = H.ablock("b0");
  Block &AB1 = H.ablock("tail");
  Block &AB2 = H.ablock("mid");
  OB0.append(H.movi(Operand::vreg(V0), 7));
  OB0.append(H.movi(Operand::vreg(V1), 1));
  AB0.append(H.movi(Operand::preg(intReg(1)), 7));
  AB0.append(H.movi(Operand::preg(intReg(3)), 1));
  for (auto [OB, AB] : {std::pair{&OB0, &AB0}, {&OB1, &AB1}, {&OB2, &AB2}})
    for (unsigned I = 0; I < 12; ++I) {
      OB->append(Instr(Opcode::Emit, Operand::vreg(V0)));
      AB->append(Instr(Opcode::Emit, Operand::preg(intReg(2))));
    }
  OB0.append(Instr(Opcode::Br, Operand::label(OB2.id())));
  AB0.append(Instr(Opcode::Br, Operand::label(AB2.id())));
  OB1.append(Instr(Opcode::Ret));
  AB1.append(Instr(Opcode::Ret));
  OB2.append(Instr(Opcode::CBr, Operand::vreg(V1), Operand::label(OB2.id()),
                   Operand::label(OB1.id())));
  AB2.append(Instr(Opcode::CBr, Operand::preg(intReg(3)),
                   Operand::label(AB2.id()), Operand::label(AB1.id())));

  VerifyAllocResult R = H.verify();
  ASSERT_EQ(R.Errors.size(), 32u) << R.str();
  for (unsigned I = 0; I < 32; ++I) {
    const AllocError &E = R.Errors[I];
    unsigned Block = I / 12, Idx = I % 12 + (Block == 0 ? 2 : 0);
    EXPECT_EQ(E.Kind, AllocErrorKind::StaleAfterEvict) << I;
    EXPECT_EQ(E.Block, Block) << I;
    EXPECT_EQ(E.InstrIdx, Idx) << I;
    EXPECT_EQ(E.VReg, V0) << I;
    EXPECT_EQ(E.PReg, intReg(2)) << I;
  }
}

//===----------------------------------------------------------------------===//
// State-representation invariants: unreachable code and declared sizes.
//===----------------------------------------------------------------------===//

/// b0 -> join and an unreachable `dead` -> join. The solver transfers dead
/// from the all-values top state and meets its out-state into join like any
/// other predecessor's, so dead's redefinition of v0 into $2 reaches join.
struct DeadPredecessor : HandPair {
  Block *DeadAlloc;
  DeadPredecessor() {
    unsigned V0 = vreg(), V1 = vreg();
    Block &OB0 = oblock("b0");
    Block &OB1 = oblock("dead");
    Block &OB2 = oblock("join");
    OB0.append(movi(Operand::vreg(V0), 7));
    OB0.append(movi(Operand::vreg(V1), 1));
    OB0.append(Instr(Opcode::Br, Operand::label(OB2.id())));
    OB1.append(movi(Operand::vreg(V0), 9));
    OB1.append(Instr(Opcode::Emit, Operand::vreg(V0)));
    OB1.append(Instr(Opcode::Emit, Operand::vreg(V1)));
    OB1.append(Instr(Opcode::Br, Operand::label(OB2.id())));
    OB2.append(Instr(Opcode::Emit, Operand::vreg(V0)));
    OB2.append(Instr(Opcode::Emit, Operand::vreg(V1)));
    OB2.append(Instr(Opcode::Ret));

    unsigned S0 = AF.newSlot(RegClass::Int);
    Block &AB0 = ablock("b0");
    Block &AB1 = ablock("dead");
    Block &AB2 = ablock("join");
    AB0.append(movi(Operand::preg(intReg(1)), 7));
    AB0.append(movi(Operand::preg(intReg(3)), 1));
    AB0.append(Instr(Opcode::Br, Operand::label(AB2.id())));
    AB1.append(movi(Operand::preg(intReg(2)), 9));
    AB1.append(spill(Opcode::StSlot, intReg(2), S0, SpillKind::EvictStore));
    AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
    AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(3))));
    AB1.append(Instr(Opcode::Br, Operand::label(AB2.id())));
    AB2.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
    AB2.append(Instr(Opcode::Emit, Operand::preg(intReg(3))));
    AB2.append(Instr(Opcode::Ret));
    DeadAlloc = &AB1;
  }
};

TEST(VerifierUnreachable, KillInDeadBlockReachesJoin) {
  DeadPredecessor H;
  // Inside dead, everything but the killed v0 is still assumed present
  // ($3 holds v1); v0 lives only in $2 and its home slot 0. At the join, no
  // location holds v0 on both paths; v1 in $3 survives the meet.
  EXPECT_EQ(H.verify().str(),
            "stale-after-evict at f:b1[2]: use of v0: register no longer "
            "holds the value (it lives in slot 0) (temp=v0, reg=$1, pos=8)\n"
            "lost-value at f:b2[0]: use of v0: value is in no register or "
            "slot on some path (temp=v0, reg=$1, pos=14)");
}

TEST(VerifierUnreachable, AgreeingDeadBlockIsTransparent) {
  DeadPredecessor H;
  // Define v0 into $1 in dead as well, and read it from there: every
  // location b0 relies on now holds the same value on the dead path.
  H.DeadAlloc->instrs()[0].op(0) = Operand::preg(intReg(1));
  H.DeadAlloc->instrs()[1].op(0) = Operand::preg(intReg(1));
  EXPECT_EQ(H.verify().str(), "");
}

/// A small function with a loop, a spill and a reload, whose original
/// declares \p NumVRegs virtual registers; returns the heap bytes one
/// verification allocates.
uint64_t verifyBytesWithDeclaredVRegs(unsigned NumVRegs) {
  HandPair H;
  unsigned V0 = H.vreg(), V1 = H.vreg();
  while (H.OF.numVRegs() < NumVRegs)
    H.vreg();
  Block &OB0 = H.oblock("b0");
  Block &OB1 = H.oblock("loop");
  Block &OB2 = H.oblock("exit");
  OB0.append(H.movi(Operand::vreg(V0), 7));
  OB0.append(H.movi(Operand::vreg(V1), 3));
  OB0.append(Instr(Opcode::Br, Operand::label(OB1.id())));
  OB1.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB1.append(Instr(Opcode::CBr, Operand::vreg(V1), Operand::label(OB1.id()),
                   Operand::label(OB2.id())));
  OB2.append(Instr(Opcode::Emit, Operand::vreg(V0)));
  OB2.append(Instr(Opcode::Ret));
  unsigned S0 = H.AF.newSlot(RegClass::Int);
  Block &AB0 = H.ablock("b0");
  Block &AB1 = H.ablock("loop");
  Block &AB2 = H.ablock("exit");
  AB0.append(H.movi(Operand::preg(intReg(1)), 7));
  AB0.append(H.spill(Opcode::StSlot, intReg(1), S0, SpillKind::EvictStore));
  AB0.append(H.movi(Operand::preg(intReg(2)), 3));
  AB0.append(Instr(Opcode::Br, Operand::label(AB1.id())));
  AB1.append(Instr(Opcode::Emit, Operand::preg(intReg(1))));
  AB1.append(Instr(Opcode::CBr, Operand::preg(intReg(2)),
                   Operand::label(AB1.id()), Operand::label(AB2.id())));
  AB2.append(H.spill(Opcode::LdSlot, intReg(4), S0, SpillKind::EvictLoad));
  AB2.append(Instr(Opcode::Emit, Operand::preg(intReg(4))));
  AB2.append(Instr(Opcode::Ret));
  AllocSnapshot Before = allocSnapshot();
  VerifyAllocResult R = H.verify();
  AllocSnapshot After = allocSnapshot();
  EXPECT_TRUE(R.ok()) << R.str();
  return (After - Before).Bytes;
}

TEST(VerifierMemory, IndependentOfDeclaredVRegs) {
  if (!allocProfileAvailable())
    GTEST_SKIP() << "heap allocation counters not installed in this build";
  uint64_t Small = verifyBytesWithDeclaredVRegs(100);
  uint64_t Huge = verifyBytesWithDeclaredVRegs(1000000);
  EXPECT_GT(Small, 0u);
  EXPECT_LE(Huge, 2 * Small) << "vregs=100: " << Small
                             << " bytes, vregs=1000000: " << Huge;
}

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

struct PreparedOracleCase {
  std::string Name, Text;
  std::vector<unsigned> Limits;
};

/// The program texts the prepared-oracle test runs, each with the register
/// limits to run it at: fuzz programs 1-20 over the whole default grid, and
/// every tests/corpus reproducer at the limit its header names.
std::vector<PreparedOracleCase> preparedOracleCases() {
  std::vector<PreparedOracleCase> Cases;
  FuzzOptions FO;
  for (uint64_t S = 1; S <= 20; ++S)
    Cases.push_back({"fuzz-" + std::to_string(S),
                     printed(*buildRandomProgram(S, FO.Program)),
                     FO.RegLimits});
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(LSRA_CORPUS_DIR))
    if (E.path().extension() == ".ir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &F : Files) {
    std::ifstream In(F);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Text = SS.str();
    std::string Header = Text.substr(0, Text.find('\n'));
    size_t At = Header.find(" regs=");
    EXPECT_NE(At, std::string::npos) << F << ": no regs= in its header";
    if (At == std::string::npos)
      continue;
    unsigned Regs = static_cast<unsigned>(std::stoul(Header.substr(At + 6)));
    Cases.push_back({F.filename().string(), Text, {Regs}});
  }
  return Cases;
}

TEST(PreparedOracle, SharedPreparationGivesTheTextOraclesVerdicts) {
  std::vector<PreparedOracleCase> Cases = preparedOracleCases();
  ASSERT_GT(Cases.size(), 20u) << "no corpus reproducers found";
  for (const PreparedOracleCase &C : Cases) {
    for (unsigned Regs : C.Limits) {
      PreparedProgram P = prepareOracle(C.Text, Regs);
      ASSERT_TRUE(P.M) << C.Name << ": " << P.Malformed.Detail;
      std::string Before = printed(*P.M);
      for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
        for (bool Cleanup : {false, true}) {
          OracleResult Shared = runOracle(P, K, Cleanup);
          OracleResult Alone = runOracle(C.Text, K, Regs, Cleanup);
          std::string Where = C.Name + " " + allocatorName(K) + " r" +
                              std::to_string(Regs) +
                              (Cleanup ? " cleanup" : "");
          EXPECT_EQ(Shared.St, Alone.St) << Where;
          EXPECT_EQ(Shared.Kind, Alone.Kind) << Where;
          EXPECT_EQ(Shared.Detail, Alone.Detail) << Where;
        }
      }
      EXPECT_TRUE(printed(*P.M) == Before)
          << C.Name << " r" << Regs
          << ": the grid points changed the prepared module";
    }
  }
}

TEST(SharedScanOracle, PairMatchesTwoSinglePoints) {
  // One scan finished twice must give each cleanup setting the verdict of
  // its own grid point, and the module a full allocation with that setting
  // prints.
  std::vector<PreparedOracleCase> Cases = preparedOracleCases();
  ASSERT_GT(Cases.size(), 20u) << "no corpus reproducers found";
  const std::vector<bool> Pair{false, true};
  for (const PreparedOracleCase &C : Cases) {
    for (unsigned Regs : C.Limits) {
      PreparedProgram P = prepareOracle(C.Text, Regs);
      ASSERT_TRUE(P.M) << C.Name << ": " << P.Malformed.Detail;
      for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
        std::vector<std::unique_ptr<Module>> Mods;
        std::vector<OracleResult> Got = runOracleCleanups(P, K, Pair, &Mods);
        ASSERT_EQ(Got.size(), 2u);
        ASSERT_EQ(Mods.size(), 2u);
        for (size_t I = 0; I < Pair.size(); ++I) {
          std::string Where = C.Name + " " + allocatorName(K) + " r" +
                              std::to_string(Regs) +
                              (Pair[I] ? " cleanup" : "");
          OracleResult Alone = runOracle(P, K, Pair[I]);
          EXPECT_EQ(Got[I].St, Alone.St) << Where;
          EXPECT_EQ(Got[I].Kind, Alone.Kind) << Where;
          EXPECT_EQ(Got[I].Detail, Alone.Detail) << Where;
          std::unique_ptr<Module> Full = cloneModule(*P.M);
          AllocOptions AO;
          AO.SpillCleanup = Pair[I];
          allocateModule(*Full, P.TD, K, AO);
          EXPECT_TRUE(printed(*Mods[I]) == printed(*Full)) << Where;
        }
      }
    }
  }
}

TEST(PreparedOracle, MalformedTextKeepsItsVerdict) {
  const std::string Text = "func @main() {\nbb0:\n  bogus\n}\n";
  PreparedProgram P = prepareOracle(Text, 4);
  EXPECT_FALSE(P.M);
  OracleResult Shared = runOracle(P, AllocatorKind::SecondChanceBinpack);
  OracleResult Alone =
      runOracle(Text, AllocatorKind::SecondChanceBinpack, 4, false);
  EXPECT_EQ(Shared.St, OracleResult::Malformed);
  EXPECT_EQ(Alone.St, OracleResult::Malformed);
  EXPECT_EQ(Shared.Detail, Alone.Detail);
  EXPECT_EQ(Shared.Detail.rfind("parse: ", 0), 0u) << Shared.Detail;
}

} // namespace
