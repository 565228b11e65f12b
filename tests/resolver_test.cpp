//===- tests/resolver_test.cpp - §2.4 edge resolution placement -----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// Drives resolveEdges() directly with hand-built location maps to pin down
// the placement rules of §2.4 footnote 1: resolution code goes to the top
// of a single-predecessor successor, to the bottom of a single-successor
// predecessor (only when its terminator reads no registers), and onto a
// freshly split critical edge otherwise.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "ir/Builder.h"
#include "regalloc/Resolver.h"
#include "target/LowerCalls.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

std::vector<unsigned> succs(const Block &B) {
  SuccList S = B.successors();
  return {S.begin(), S.end()};
}

/// A fixture that fakes a scanned function: one cross-block temp %T whose
/// location at block boundaries is set by each test.
struct ResolverFixture {
  Module M;
  Function *F = nullptr;
  unsigned T = 0;
  std::unique_ptr<Liveness> LV;
  /// %T's location at each block's top and bottom (memory unless a test
  /// says otherwise) and its consistency at each bottom.
  std::vector<LocCode> Top, Bot;
  std::vector<bool> BotConsistent;
  std::unique_ptr<SpillSlots> Slots;

  /// Build a CFG from an edge list; block 0 is entry. %T is defined in the
  /// entry and emitted in every exit block so it is live everywhere.
  void build(unsigned NumBlocks,
             const std::vector<std::pair<unsigned, unsigned>> &Edges) {
    FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
    std::vector<Block *> Blocks;
    for (unsigned I = 0; I < NumBlocks; ++I)
      Blocks.push_back(
          &B.newBlock(std::string("b").append(std::to_string(I))));
    B.setBlock(*Blocks[0]);
    T = B.movi(7);
    // Terminators: blocks with two successors get CBr (on a fresh cond so
    // %T's liveness is unaffected), one successor Br, none Ret.
    std::vector<std::vector<unsigned>> Succ(NumBlocks);
    for (auto [P, S] : Edges)
      Succ[P].push_back(S);
    for (unsigned I = 0; I < NumBlocks; ++I) {
      B.setBlock(*Blocks[I]);
      if (Succ[I].empty()) {
        B.emitValue(T); // keep %T live to every exit
        B.retVoid();
      } else if (Succ[I].size() == 1) {
        B.br(*Blocks[Succ[I][0]]);
      } else {
        unsigned C = B.movi(1);
        B.cbr(C, *Blocks[Succ[I][0]], *Blocks[Succ[I][1]]);
      }
    }
    F = &B.function();
    lowerCalls(*F);
    TargetDesc TD = TargetDesc::alphaLike();
    LV = std::make_unique<Liveness>(*F, TD);
    Top.assign(NumBlocks, LocMem);
    Bot.assign(NumBlocks, LocMem);
    BotConsistent.assign(NumBlocks, false);
    Slots = std::make_unique<SpillSlots>(*F);
    Slots->homeOf(T);
  }

  ResolveCounts resolve(const ConsistencyInfo *CI = nullptr) {
    // The scan records a live temp at a boundary only while it is held in
    // a register.
    BoundaryLocs TopRegs(F->numBlocks()), BotRegs(F->numBlocks());
    for (unsigned B = 0; B < F->numBlocks(); ++B) {
      if (isRegLoc(Top[B]) && LV->liveIn(B).test(T))
        TopRegs[B].push_back({T, Top[B], false});
      if (isRegLoc(Bot[B]) && LV->liveOut(B).test(T))
        BotRegs[B].push_back({T, Bot[B], BotConsistent[B]});
    }
    ResolverInput In;
    In.LV = LV.get();
    In.Top = &TopRegs;
    In.Bottom = &BotRegs;
    In.CI = CI;
    return resolveEdges(*F, In, *Slots);
  }
};

TEST(Resolver, NoCodeWhenStatesAgree) {
  ResolverFixture Fx;
  Fx.build(2, {{0, 1}});
  Fx.Bot[0] = locReg(intReg(3));
  Fx.Top[1] = locReg(intReg(3));
  ResolveCounts C = Fx.resolve();
  EXPECT_EQ(C.Loads + C.Stores + C.Moves, 0u);
  EXPECT_EQ(C.SplitEdges, 0u);
}

TEST(Resolver, MoveOnRegisterMismatchAtSinglePredTop) {
  ResolverFixture Fx;
  // Diamond: 0 -> {1, 2} -> 3. Blocks 1 and 2 have a single pred each.
  Fx.build(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  Fx.Bot[0] = locReg(intReg(3));
  Fx.Top[1] = locReg(intReg(4)); // mismatch on edge 0->1
  Fx.Top[2] = locReg(intReg(3));
  Fx.Bot[1] = locReg(intReg(4));
  Fx.Bot[2] = locReg(intReg(3));
  Fx.Top[3] = locReg(intReg(3));
  // Edge 1->3 also mismatches (reg4 -> reg3).
  ResolveCounts C = Fx.resolve();
  EXPECT_EQ(C.Moves, 2u);
  EXPECT_EQ(C.SplitEdges, 0u);
  // Edge 0->1's move is at the top of bb1 (single pred).
  const Instr &TopI = Fx.F->block(1).instrs().front();
  EXPECT_EQ(TopI.Spill, SpillKind::ResolveMove);
  EXPECT_EQ(TopI.op(0).pregId(), intReg(4));
  EXPECT_EQ(TopI.op(1).pregId(), intReg(3));
  // Edge 1->3's move is at the bottom of bb1 (single succ, Br terminator).
  const auto &B1 = Fx.F->block(1).instrs();
  EXPECT_EQ(B1[B1.size() - 2].Spill, SpillKind::ResolveMove);
}

TEST(Resolver, StoreOnlyWhenInconsistent) {
  ResolverFixture Fx;
  Fx.build(2, {{0, 1}});
  Fx.Bot[0] = locReg(intReg(3));
  Fx.Top[1] = LocMem;
  // First: inconsistent -> store inserted.
  ResolveCounts C = Fx.resolve();
  EXPECT_EQ(C.Stores, 1u);

  ResolverFixture Fx2;
  Fx2.build(2, {{0, 1}});
  Fx2.Bot[0] = locReg(intReg(3));
  Fx2.Top[1] = LocMem;
  Fx2.BotConsistent[0] = true; // consistent: suppressed (§2.4)
  ResolveCounts C2 = Fx2.resolve();
  EXPECT_EQ(C2.Stores, 0u);
}

TEST(Resolver, ConsistencyStoreWhereReliedOnAndInconsistent) {
  // %T stays in r3 across 0 -> 1, but bb1 relies on its consistency
  // (USED_C_in(1)): a store goes on the edge only while bb0's bottom is
  // inconsistent (§2.4).
  for (bool ConsistentAtBottom : {false, true}) {
    ResolverFixture Fx;
    Fx.build(2, {{0, 1}});
    Fx.Bot[0] = locReg(intReg(3));
    Fx.BotConsistent[0] = ConsistentAtBottom;
    Fx.Top[1] = locReg(intReg(3));
    ConsistencyInfo CI(Fx.F->numBlocks());
    CI.UsedConsistency[1].push_back(Fx.T);
    CI.solve(*Fx.F);
    ResolveCounts C = Fx.resolve(&CI);
    EXPECT_EQ(C.Stores, ConsistentAtBottom ? 0u : 1u);
    EXPECT_EQ(C.Moves, 0u);
  }
}

TEST(Resolver, LoadOnMemToReg) {
  ResolverFixture Fx;
  Fx.build(2, {{0, 1}});
  Fx.Bot[0] = LocMem;
  Fx.Top[1] = locReg(intReg(5));
  ResolveCounts C = Fx.resolve();
  EXPECT_EQ(C.Loads, 1u);
  const Instr &TopI = Fx.F->block(1).instrs().front();
  EXPECT_EQ(TopI.opcode(), Opcode::LdSlot);
  EXPECT_EQ(TopI.op(0).pregId(), intReg(5));
}

TEST(Resolver, CriticalEdgeIsSplit) {
  // 0 -> {1, 2}, 1 -> 3, 2 -> 3: edge 2->3? No — make a true critical
  // edge: 0 has two succs and 3 has two preds, edge 0->3 is critical.
  ResolverFixture Fx;
  Fx.build(4, {{0, 3}, {0, 1}, {1, 3}, {2, 2}});
  // (Block 2 is an unreachable self-loop filler; ignore it.)
  Fx.Bot[0] = locReg(intReg(3));
  Fx.Top[3] = locReg(intReg(4)); // mismatch on critical edge 0->3
  Fx.Top[1] = locReg(intReg(4));
  Fx.Bot[1] = locReg(intReg(4));
  unsigned BlocksBefore = Fx.F->numBlocks();
  ResolveCounts C = Fx.resolve();
  EXPECT_EQ(C.SplitEdges, 1u);
  ASSERT_EQ(Fx.F->numBlocks(), BlocksBefore + 1);
  // The new block carries the move and branches to bb3.
  const Block &NewB = Fx.F->block(BlocksBefore);
  ASSERT_GE(NewB.size(), 2u);
  EXPECT_EQ(NewB.instrs().front().Spill, SpillKind::ResolveMove);
  EXPECT_EQ(succs(NewB), std::vector<unsigned>{3u});
  // bb0's terminator now targets the split block instead of bb3.
  auto Succs = Fx.F->block(0).successors();
  EXPECT_TRUE(std::find(Succs.begin(), Succs.end(), NewB.id()) != Succs.end());
  EXPECT_TRUE(std::find(Succs.begin(), Succs.end(), 3u) == Succs.end());
}

TEST(Resolver, BackEdgeIntoEntryNeverInsertsAtEntryTop) {
  // A back edge into the entry block: the entry's single *explicit*
  // predecessor is the latch (here, itself), but function entry is an
  // implicit second predecessor, so back-edge resolution code placed at
  // the entry's top would also execute before the first iteration.
  // The resolver must split the edge instead.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  Block &B0 = B.newBlock("b0");
  Block &B1 = B.newBlock("b1");
  B.setBlock(B1);
  unsigned T = B.movi(7); // definition only in the exit: %T's use in the
  B.retVoid();            // entry is upward-exposed (loop-carried shape)
  B.setBlock(B0);
  B.emitValue(T);
  unsigned C = B.movi(1);
  B.cbr(C, B0, B1);
  Function &F = B.function();
  lowerCalls(F);
  TargetDesc TD = TargetDesc::alphaLike();
  Liveness LV(F, TD);
  ASSERT_TRUE(LV.liveIn(0).test(T)) << "test needs %T live into the entry";
  ASSERT_TRUE(LV.liveOut(0).test(T));
  BoundaryLocs Top(2), Bot(2);
  Bot[0] = {{T, locReg(intReg(3)), false}};
  Top[0] = {{T, locReg(intReg(4)), false}}; // mismatch on the back edge 0->0
  SpillSlots Slots(F);
  ResolverInput In;
  In.LV = &LV;
  In.Top = &Top;
  In.Bottom = &Bot;
  unsigned BlocksBefore = F.numBlocks();
  ResolveCounts Counts = resolveEdges(F, In, Slots);
  EXPECT_EQ(Counts.Moves, 1u);
  // The move must not be at the top of the entry block.
  EXPECT_NE(F.block(0).instrs().front().Spill, SpillKind::ResolveMove);
  // It lands on a split edge whose block branches back to the entry.
  ASSERT_EQ(Counts.SplitEdges, 1u);
  ASSERT_EQ(F.numBlocks(), BlocksBefore + 1);
  const Block &NewB = F.block(BlocksBefore);
  ASSERT_GE(NewB.size(), 2u);
  EXPECT_EQ(NewB.instrs().front().Spill, SpillKind::ResolveMove);
  EXPECT_EQ(succs(NewB), std::vector<unsigned>{0u});
  auto Succs = F.block(0).successors();
  EXPECT_TRUE(std::find(Succs.begin(), Succs.end(), NewB.id()) != Succs.end());
  EXPECT_TRUE(std::find(Succs.begin(), Succs.end(), 0u) == Succs.end());
}

TEST(Resolver, SwapUsesScratchSlotCycleBreak) {
  // Two temps swapping registers across one edge. Use a second temp.
  Module M;
  FunctionBuilder B(M, "f", 0, 0, CallRetKind::None);
  Block &B0 = B.newBlock("b0");
  Block &B1 = B.newBlock("b1");
  B.setBlock(B0);
  unsigned T1 = B.movi(1);
  unsigned T2 = B.movi(2);
  B.br(B1);
  B.setBlock(B1);
  B.emitValue(T1);
  B.emitValue(T2);
  B.retVoid();
  Function &F = B.function();
  lowerCalls(F);
  TargetDesc TD = TargetDesc::alphaLike();
  Liveness LV(F, TD);
  ASSERT_LT(T1, T2);
  ASSERT_TRUE(LV.liveIn(1).test(T1) && LV.liveIn(1).test(T2));
  BoundaryLocs Top(2), Bot(2);
  Bot[0] = {{T1, locReg(intReg(3)), false}, {T2, locReg(intReg(4)), false}};
  Top[1] = {{T1, locReg(intReg(4)), false}, // swapped!
            {T2, locReg(intReg(3)), false}};
  SpillSlots Slots(F);
  ResolverInput In;
  In.LV = &LV;
  In.Top = &Top;
  In.Bottom = &Bot;
  ResolveCounts C = resolveEdges(F, In, Slots);
  // A 2-cycle: scratch store + one move + scratch load.
  EXPECT_EQ(C.Moves, 1u);
  EXPECT_EQ(C.Stores, 1u);
  EXPECT_EQ(C.Loads, 1u);
}

} // namespace
