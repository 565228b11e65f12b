//===- tests/consistency_test.cpp - §2.4 dataflow --------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "regalloc/Consistency.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

/// Straight-line CFG b0 -> b1 -> b2 plus a diamond variant for the
/// dataflow equations.
struct Chain {
  Module M;
  Function *F;
  Chain(unsigned N) {
    F = &M.addFunction("f");
    for (unsigned I = 0; I < N; ++I)
      F->addBlock(std::string("b").append(std::to_string(I)));
    for (unsigned I = 0; I + 1 < N; ++I)
      F->block(I).append(Instr(Opcode::Br, Operand::label(I + 1)));
    F->block(N - 1).append(Instr(Opcode::Ret));
  }
};

ConsistencyInfo makeInfo(const Function &F) {
  return ConsistencyInfo(F.numBlocks());
}

TEST(Consistency, GenPropagatesBackward) {
  Chain C(3);
  ConsistencyInfo CI = makeInfo(*C.F);
  // Temp 0's consistency is used in b2.
  CI.UsedConsistency[2].push_back(0);
  unsigned Iters = CI.solve(*C.F);
  EXPECT_GE(Iters, 1u);
  EXPECT_TRUE(CI.usedAtEntry(2, 0));
  EXPECT_TRUE(CI.usedAtEntry(1, 0));
  EXPECT_TRUE(CI.usedAtEntry(0, 0));
  EXPECT_FALSE(CI.usedAtEntry(0, 1));
}

TEST(Consistency, KillStopsPropagation) {
  Chain C(3);
  ConsistencyInfo CI = makeInfo(*C.F);
  CI.UsedConsistency[2].push_back(0);
  CI.WroteTR[1].push_back(0); // b1 locally determines temp 0's consistency
  CI.solve(*C.F);
  EXPECT_TRUE(CI.usedAtEntry(2, 0));
  // USED_C_in(b1) = GEN(b1) | (OUT(b1) - KILL(b1)) = {} | ({0} - {0}) = {}.
  EXPECT_FALSE(CI.usedAtEntry(1, 0));
  EXPECT_FALSE(CI.usedAtEntry(0, 0));
}

TEST(Consistency, GenPropagatesPastOwnKill) {
  // GEN and KILL in the same block: USED_C_in = GEN | (OUT - KILL), so the
  // block's own GEN still reaches its predecessors (the kill only blocks
  // *successor* reliance). The allocator never produces this combination
  // for one temp (Ut is only set when the assumption is not local), but
  // the equation must behave per the paper regardless.
  Chain C(2);
  ConsistencyInfo CI = makeInfo(*C.F);
  CI.UsedConsistency[1].push_back(0);
  CI.WroteTR[1].push_back(0);
  CI.solve(*C.F);
  EXPECT_TRUE(CI.usedAtEntry(1, 0));
  EXPECT_TRUE(CI.usedAtEntry(0, 0));
}

TEST(Consistency, UsedAtExitActsAsEdgeGen) {
  Chain C(3);
  ConsistencyInfo CI = makeInfo(*C.F);
  // The resolver will suppress a store on an outgoing edge of b1.
  CI.UsedAtExit[1].push_back(0);
  CI.solve(*C.F);
  EXPECT_TRUE(CI.usedAtEntry(1, 0));
  EXPECT_TRUE(CI.usedAtEntry(0, 0));
  EXPECT_FALSE(CI.usedAtEntry(2, 0));
}

TEST(Consistency, LoopReachesFixpoint) {
  // b0 -> b1 -> b2, b1 -> b1 (self loop).
  Module M;
  Function &F = M.addFunction("f");
  F.addBlock("b0");
  F.addBlock("b1");
  F.addBlock("b2");
  F.block(0).append(Instr(Opcode::Br, Operand::label(1)));
  unsigned Cond = F.newVReg(RegClass::Int);
  F.block(1).append(Instr(Opcode::MovI, Operand::vreg(Cond), Operand::imm(0)));
  F.block(1).append(Instr(Opcode::CBr, Operand::vreg(Cond), Operand::label(1),
                          Operand::label(2)));
  F.block(2).append(Instr(Opcode::Ret));

  ConsistencyInfo CI = makeInfo(F);
  CI.UsedConsistency[2].push_back(0);
  unsigned Iters = CI.solve(F);
  EXPECT_TRUE(CI.usedAtEntry(1, 0));
  EXPECT_TRUE(CI.usedAtEntry(0, 0));
  // The paper reports 2-3 iterations in practice.
  EXPECT_LE(Iters, 4u);
}

TEST(Consistency, SparseSetsTakeRepeatsInAnyOrder) {
  // The scan appends vreg ids as it meets them; solve() sorts and dedups.
  Chain C(2);
  ConsistencyInfo CI = makeInfo(*C.F);
  for (unsigned V : {9u, 3u, 9u, 40u})
    CI.UsedConsistency[1].push_back(V);
  CI.WroteTR[0].push_back(40);
  CI.WroteTR[0].push_back(40);
  CI.solve(*C.F);
  for (unsigned V : {3u, 9u, 40u})
    EXPECT_TRUE(CI.usedAtEntry(1, V)) << V;
  EXPECT_TRUE(CI.usedAtEntry(0, 3));
  EXPECT_TRUE(CI.usedAtEntry(0, 9));
  EXPECT_FALSE(CI.usedAtEntry(0, 40));
  EXPECT_FALSE(CI.usedAtEntry(1, 4)) << "never relied on";
}

} // namespace
