//===- tests/analysis_test.cpp - Liveness, dominators, loops, order -------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "analysis/Order.h"
#include "ExactnessInputs.h"
#include "ir/Builder.h"
#include "passes/DCE.h"
#include "support/BitVector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsra;

namespace {

/// Build the diamond of the paper's Figure 1: B1 -> {B2, B3} -> B4, with
/// T1 defined in B1, used in B2 and B4; T2 local to B1; T4 redefined in B3
/// and B4.
struct DiamondFixture {
  Module M;
  Function *F = nullptr;
  unsigned T1, T2, T3, T4;
  unsigned B1, B2, B3, B4;

  DiamondFixture() {
    FunctionBuilder B(M, "fig1", 0, 0, CallRetKind::None);
    Block &Blk1 = B.newBlock("B1");
    Block &Blk2 = B.newBlock("B2");
    Block &Blk3 = B.newBlock("B3");
    Block &Blk4 = B.newBlock("B4");
    B1 = Blk1.id();
    B2 = Blk2.id();
    B3 = Blk3.id();
    B4 = Blk4.id();

    B.setBlock(Blk1);
    T1 = B.movi(1);        // T1 <- ..
    T2 = B.movi(2);        // T2 <- ..
    unsigned C = B.cmpi(Opcode::CmpLt, T2, 10); // .. <- T2 (local use)
    T4 = B.movi(4);        // T4 <- ..
    B.cbr(C, Blk2, Blk3);

    B.setBlock(Blk2);
    T3 = B.mov(T1);        // T3 <- T1 (use of T1)
    B.emitValue(T3);       // .. <- T3
    B.emitValue(T4);       // .. <- T4
    B.br(Blk4);

    B.setBlock(Blk3);
    B.emit(Instr(Opcode::MovI, Operand::vreg(T4), Operand::imm(9))); // T4 <-
    B.emitValue(T4);
    B.br(Blk4);

    B.setBlock(Blk4);
    B.emitValue(T1);       // .. <- T1
    B.emit(Instr(Opcode::MovI, Operand::vreg(T4), Operand::imm(7))); // T4 <-
    B.emitValue(T4);
    B.retVoid();
    F = &B.function();
  }
};

TEST(Liveness, DiamondLiveSets) {
  DiamondFixture Fx;
  TargetDesc TD = TargetDesc::alphaLike();
  Liveness LV(*Fx.F, TD);

  // T1 is live out of B1, through both arms (used in B2 and B4).
  EXPECT_TRUE(LV.liveOut(Fx.B1).test(Fx.T1));
  EXPECT_TRUE(LV.liveIn(Fx.B2).test(Fx.T1));
  EXPECT_TRUE(LV.liveIn(Fx.B3).test(Fx.T1)); // live-through B3
  EXPECT_TRUE(LV.liveIn(Fx.B4).test(Fx.T1));
  // T2 is block-local to B1.
  EXPECT_FALSE(LV.liveOut(Fx.B1).test(Fx.T2));
  EXPECT_FALSE(LV.isCrossBlock(Fx.T2));
  EXPECT_TRUE(LV.isCrossBlock(Fx.T1));
  // T4 is live into B2 (used there) but dead into B3 (redefined there).
  EXPECT_TRUE(LV.liveIn(Fx.B2).test(Fx.T4));
  EXPECT_FALSE(LV.liveIn(Fx.B3).test(Fx.T4));
  // T4 is redefined at the top of B4, so it is not live into B4.
  EXPECT_FALSE(LV.liveIn(Fx.B4).test(Fx.T4));
}

TEST(Liveness, LoopCarriedValue) {
  Module M;
  FunctionBuilder B(M, "loop", 0, 0, CallRetKind::Int);
  Block &Entry = B.newBlock("entry");
  Block &Head = B.newBlock("head");
  Block &Body = B.newBlock("body");
  Block &Exit = B.newBlock("exit");
  B.setBlock(Entry);
  unsigned Acc = B.movi(0);
  unsigned I = B.movi(0);
  B.br(Head);
  B.setBlock(Head);
  unsigned C = B.cmpi(Opcode::CmpLt, I, 10);
  B.cbr(C, Body, Exit);
  B.setBlock(Body);
  B.emit(Instr(Opcode::Add, Operand::vreg(Acc), Operand::vreg(Acc),
               Operand::vreg(I)));
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(Head);
  B.setBlock(Exit);
  B.retVal(Acc);

  TargetDesc TD = TargetDesc::alphaLike();
  Liveness LV(M.function(0), TD);
  // Acc is live around the back edge.
  EXPECT_TRUE(LV.liveIn(Head.id()).test(Acc));
  EXPECT_TRUE(LV.liveOut(Body.id()).test(Acc));
  EXPECT_TRUE(LV.liveIn(Exit.id()).test(Acc));
  EXPECT_TRUE(LV.liveOut(Head.id()).test(I));
  EXPECT_FALSE(LV.liveIn(Exit.id()).test(I));
}

TEST(Dominators, DiamondAndLoop) {
  DiamondFixture Fx;
  Dominators Dom(*Fx.F);
  EXPECT_EQ(Dom.idom(Fx.B2), Fx.B1);
  EXPECT_EQ(Dom.idom(Fx.B3), Fx.B1);
  EXPECT_EQ(Dom.idom(Fx.B4), Fx.B1); // join: idom is the branch block
  EXPECT_TRUE(Dom.dominates(Fx.B1, Fx.B4));
  EXPECT_FALSE(Dom.dominates(Fx.B2, Fx.B4));
  EXPECT_TRUE(Dom.dominates(Fx.B2, Fx.B2));
}

TEST(Loops, NestedLoopDepths) {
  Module M;
  FunctionBuilder B(M, "nest", 0, 0, CallRetKind::None);
  Block &Entry = B.newBlock("entry");
  Block &OuterHead = B.newBlock("outer.head");
  Block &InnerHead = B.newBlock("inner.head");
  Block &InnerBody = B.newBlock("inner.body");
  Block &OuterLatch = B.newBlock("outer.latch");
  Block &Exit = B.newBlock("exit");

  B.setBlock(Entry);
  unsigned I = B.movi(0);
  B.br(OuterHead);
  B.setBlock(OuterHead);
  unsigned C1 = B.cmpi(Opcode::CmpLt, I, 3);
  B.cbr(C1, InnerHead, Exit);
  B.setBlock(InnerHead);
  unsigned C2 = B.cmpi(Opcode::CmpLt, I, 2);
  B.cbr(C2, InnerBody, OuterLatch);
  B.setBlock(InnerBody);
  B.br(InnerHead);
  B.setBlock(OuterLatch);
  B.emit(Instr(Opcode::Add, Operand::vreg(I), Operand::vreg(I),
               Operand::imm(1)));
  B.br(OuterHead);
  B.setBlock(Exit);
  B.retVoid();

  LoopInfo LI(M.function(0));
  EXPECT_EQ(LI.depth(Entry.id()), 0u);
  EXPECT_EQ(LI.depth(Exit.id()), 0u);
  EXPECT_EQ(LI.depth(OuterHead.id()), 1u);
  EXPECT_EQ(LI.depth(OuterLatch.id()), 1u);
  EXPECT_EQ(LI.depth(InnerHead.id()), 2u);
  EXPECT_EQ(LI.depth(InnerBody.id()), 2u);
  EXPECT_EQ(LI.loops().size(), 2u);
  EXPECT_GT(LI.blockWeight(InnerBody.id()), LI.blockWeight(OuterHead.id()));
}

TEST(Order, NumberingPositions) {
  DiamondFixture Fx;
  Numbering Num(*Fx.F);
  EXPECT_EQ(Num.numInstrs(), Fx.F->numInstrs());
  EXPECT_EQ(Num.blockStartPos(Fx.B1), 0u);
  // Positions are 2*index; block ends meet the next block's start.
  EXPECT_EQ(Num.blockEndPos(Fx.B1), Num.blockStartPos(Fx.B2));
  EXPECT_EQ(Numbering::usePos(3), 6u);
  EXPECT_EQ(Numbering::defPos(3), 7u);
  EXPECT_EQ(Num.blockOfIndex(0), Fx.B1);
  EXPECT_EQ(Num.blockOfIndex(Num.blockFirstIndex(Fx.B3)), Fx.B3);
}

TEST(Order, ReversePostOrderStartsAtEntryAndCoversAll) {
  DiamondFixture Fx;
  std::vector<unsigned> RPO = reversePostOrder(*Fx.F);
  ASSERT_EQ(RPO.size(), Fx.F->numBlocks());
  EXPECT_EQ(RPO.front(), Fx.B1);
  // B4 comes after both B2 and B3.
  auto Pos = [&](unsigned B) {
    return std::find(RPO.begin(), RPO.end(), B) - RPO.begin();
  };
  EXPECT_GT(Pos(Fx.B4), Pos(Fx.B2));
  EXPECT_GT(Pos(Fx.B4), Pos(Fx.B3));
}

TEST(Liveness, WorklistConvergesInOnePassOnAcyclicCFG) {
  // The worklist is seeded in post order, so a backward problem over an
  // acyclic CFG stabilises after relaxing each block exactly once.
  DiamondFixture Fx;
  TargetDesc TD = TargetDesc::alphaLike();
  Liveness LV(*Fx.F, TD);
  EXPECT_EQ(LV.numIterations(), Fx.F->numBlocks());
}

TEST(Liveness, WorklistAcceptsPrecomputedRPO) {
  DiamondFixture Fx;
  TargetDesc TD = TargetDesc::alphaLike();
  std::vector<unsigned> RPO = reversePostOrder(*Fx.F);
  Liveness Fresh(*Fx.F, TD);
  Liveness Shared(*Fx.F, TD, &RPO);
  for (unsigned B = 0; B < Fx.F->numBlocks(); ++B) {
    EXPECT_EQ(Fresh.liveIn(B), Shared.liveIn(B));
    EXPECT_EQ(Fresh.liveOut(B), Shared.liveOut(B));
  }
  EXPECT_EQ(Fresh.numIterations(), Shared.numIterations());
}

TEST(AnalysisCache, ReturnsSameInstanceUntilInvalidated) {
  DiamondFixture Fx;
  TargetDesc TD = TargetDesc::alphaLike();
  FunctionAnalyses FA(*Fx.F, TD);
  const Liveness *LV = &FA.liveness();
  const Dominators *Dom = &FA.dominators();
  const LoopInfo *LI = &FA.loops();
  EXPECT_EQ(LV, &FA.liveness()); // cached, not recomputed
  EXPECT_EQ(Dom, &FA.dominators());
  EXPECT_EQ(LI, &FA.loops());
  FA.invalidate();
  // After invalidation the analyses are rebuilt and still correct.
  EXPECT_TRUE(FA.liveness().liveIn(Fx.B4).test(Fx.T1));
  EXPECT_EQ(FA.dominators().idom(Fx.B4), Fx.B1);
}

TEST(AnalysisCache, AnalysesMatchStandaloneConstruction) {
  DiamondFixture Fx;
  TargetDesc TD = TargetDesc::alphaLike();
  FunctionAnalyses FA(*Fx.F, TD);
  Liveness Fresh(*Fx.F, TD);
  for (unsigned B = 0; B < Fx.F->numBlocks(); ++B) {
    EXPECT_EQ(Fresh.liveIn(B), FA.liveness().liveIn(B));
    EXPECT_EQ(Fresh.liveOut(B), FA.liveness().liveOut(B));
  }
  Dominators Dom(*Fx.F);
  for (unsigned B = 0; B < Fx.F->numBlocks(); ++B)
    EXPECT_EQ(Dom.idom(B), FA.dominators().idom(B));
}

// --- Exactness against brute-force references ----------------------------

/// Loop depth by the original definition: for every block, the number of
/// distinct headers among the natural loops that contain it.
std::vector<unsigned> referenceDepths(const Function &F, const LoopInfo &LI) {
  std::vector<unsigned> Depth(F.numBlocks(), 0);
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    std::vector<unsigned> Headers;
    for (const Loop &L : LI.loops())
      if (std::find(L.Blocks.begin(), L.Blocks.end(), B) != L.Blocks.end() &&
          std::find(Headers.begin(), Headers.end(), L.Header) == Headers.end())
        Headers.push_back(L.Header);
    Depth[B] = static_cast<unsigned>(Headers.size());
  }
  return Depth;
}

/// Natural loops by the original definition: for each back edge T -> H
/// (H dominates T, found by walking T's dominator chain), the blocks that
/// reach T without passing H.
std::vector<Loop> referenceLoops(const Function &F) {
  Dominators Dom(F);
  auto Dominates = [&](unsigned A, unsigned B) {
    if (!Dom.isReachable(B))
      return false;
    for (;; B = Dom.idom(B)) {
      if (A == B)
        return true;
      if (B == 0)
        return false;
    }
  };
  auto Preds = F.predecessors();
  std::vector<Loop> Loops;
  for (unsigned T = 0; T < F.numBlocks(); ++T) {
    if (!Dom.isReachable(T))
      continue;
    for (unsigned H : F.block(T).successors()) {
      if (!Dominates(H, T))
        continue;
      BitVector In(F.numBlocks());
      In.set(H);
      std::vector<unsigned> Work;
      if (!In.test(T)) {
        In.set(T);
        Work.push_back(T);
      }
      while (!Work.empty()) {
        unsigned B = Work.back();
        Work.pop_back();
        for (unsigned P : Preds[B])
          if (!In.test(P)) {
            In.set(P);
            Work.push_back(P);
          }
      }
      Loop L;
      L.Header = H;
      In.forEachSetBit([&](unsigned B) { L.Blocks.push_back(B); });
      Loops.push_back(std::move(L));
    }
  }
  return Loops;
}

/// Liveness by the original definition: bit vectors over every vreg,
/// swept until nothing changes.
struct ReferenceLiveness {
  std::vector<BitVector> In, Out;
  BitVector Cross;

  explicit ReferenceLiveness(const Function &F) {
    unsigned N = F.numBlocks(), V = F.numVRegs();
    In.assign(N, BitVector(V));
    Out.assign(N, BitVector(V));
    std::vector<BitVector> Use(N, BitVector(V)), Def(N, BitVector(V));
    for (unsigned B = 0; B < N; ++B)
      for (const Instr &I : F.block(B).instrs()) {
        forEachUsedReg(I, [&](const Operand &Op) {
          if (Op.isVReg() && !Def[B].test(Op.vregId()))
            Use[B].set(Op.vregId());
        });
        forEachDefinedReg(I, [&](const Operand &Op) {
          if (Op.isVReg())
            Def[B].set(Op.vregId());
        });
      }
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned B = N; B-- > 0;) {
        for (unsigned S : F.block(B).successors())
          Out[B] |= In[S];
        Changed |= In[B].unionWithDifference(Out[B], Def[B]);
        Changed |= In[B] |= Use[B];
      }
    }
    Cross.resize(V);
    for (unsigned B = 0; B < N; ++B) {
      Cross |= In[B];
      Cross |= Out[B];
    }
  }
};

std::vector<unsigned> members(const Liveness::Set &S) {
  std::vector<unsigned> Out;
  S.forEach([&](unsigned V) { Out.push_back(V); });
  return Out;
}

std::vector<unsigned> members(const BitVector &S) {
  std::vector<unsigned> Out;
  S.forEachSetBit([&](unsigned V) { Out.push_back(V); });
  return Out;
}

TEST(Loops, TwoBackEdgesToOneHeaderFoundApart) {
  // b0 -> b1; b1 -> b2; b2 -> {b1, b3}; b3 -> {b3, b4}; b4 -> {b1, b5}.
  // Back edges are found by source block: b2 -> b1, then b3 -> b3, then
  // b4 -> b1, so header b1's two loops are not found one after the other.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  std::vector<Block *> Bs;
  for (unsigned I = 0; I < 6; ++I)
    Bs.push_back(&B.newBlock(std::string("b").append(std::to_string(I))));
  B.setBlock(*Bs[0]);
  B.br(*Bs[1]);
  B.setBlock(*Bs[1]);
  B.br(*Bs[2]);
  B.setBlock(*Bs[2]);
  B.cbr(B.movi(1), *Bs[1], *Bs[3]);
  B.setBlock(*Bs[3]);
  B.cbr(B.movi(1), *Bs[3], *Bs[4]);
  B.setBlock(*Bs[4]);
  B.cbr(B.movi(1), *Bs[1], *Bs[5]);
  B.setBlock(*Bs[5]);
  B.retVoid();
  Function &F = B.function();
  LoopInfo LI(F);
  ASSERT_EQ(LI.loops().size(), 3u);
  EXPECT_EQ(LI.loops()[0].Header, 1u);
  EXPECT_EQ(LI.loops()[1].Header, 3u);
  EXPECT_EQ(LI.loops()[2].Header, 1u);
  const unsigned Want[] = {0, 1, 1, 2, 1, 0};
  for (unsigned Blk = 0; Blk < 6; ++Blk)
    EXPECT_EQ(LI.depth(Blk), Want[Blk]) << "b" << Blk;
  EXPECT_EQ(referenceDepths(F, LI), std::vector<unsigned>(Want, Want + 6));
}

TEST(Exactness, LoopsMatchReference) {
  for (auto &[Name, M] : exactnessInputs())
    for (const auto &F : M->functions()) {
      LoopInfo LI(*F);
      std::vector<Loop> Ref = referenceLoops(*F);
      ASSERT_EQ(LI.loops().size(), Ref.size()) << Name << " " << F->name();
      for (size_t I = 0; I < Ref.size(); ++I) {
        EXPECT_EQ(LI.loops()[I].Header, Ref[I].Header) << Name;
        EXPECT_EQ(LI.loops()[I].Blocks, Ref[I].Blocks) << Name;
      }
      std::vector<unsigned> Depth(F->numBlocks());
      for (unsigned B = 0; B < F->numBlocks(); ++B)
        Depth[B] = LI.depth(B);
      EXPECT_EQ(Depth, referenceDepths(*F, LI)) << Name << " " << F->name();
    }
}

TEST(Exactness, LivenessMatchesReference) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (auto &[Name, M] : exactnessInputs())
    for (const auto &F : M->functions()) {
      Liveness LV(*F, TD);
      ReferenceLiveness Ref(*F);
      for (unsigned B = 0; B < F->numBlocks(); ++B) {
        ASSERT_EQ(members(LV.liveIn(B)), members(Ref.In[B]))
            << Name << " " << F->name() << " block " << B;
        ASSERT_EQ(members(LV.liveOut(B)), members(Ref.Out[B]))
            << Name << " " << F->name() << " block " << B;
      }
      EXPECT_EQ(LV.crossBlockSet(), Ref.Cross) << Name << " " << F->name();
    }
}

TEST(Exactness, DeadCodeEliminationHandsOverFreshLiveness) {
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Removed = 0;
  for (auto &[Name, M] : exactnessInputs())
    for (const auto &F : M->functions()) {
      FunctionAnalyses FA(*F, TD);
      Removed += eliminateDeadCode(*F, TD, FA);
      const Liveness &Handed = FA.liveness();
      Liveness Fresh(*F, TD);
      for (unsigned B = 0; B < F->numBlocks(); ++B) {
        ASSERT_EQ(members(Handed.liveIn(B)), members(Fresh.liveIn(B)))
            << Name << " " << F->name() << " block " << B;
        ASSERT_EQ(members(Handed.liveOut(B)), members(Fresh.liveOut(B)))
            << Name << " " << F->name() << " block " << B;
      }
      EXPECT_EQ(Handed.crossBlockSet(), Fresh.crossBlockSet())
          << Name << " " << F->name();
    }
  EXPECT_GT(Removed, 0u) << "the inputs must exercise the update";
}

} // namespace
