//===- tests/lifetime_test.cpp - Lifetimes and lifetime holes -------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// Exercises §2.1: lifetimes are computed with a single reverse pass over
// the linear order; a temporary's lifetime may contain holes; physical
// registers get fixed lifetimes from convention uses and call clobbers.
// The Figure 1 scenario is reproduced directly.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "analysis/Order.h"
#include "ExactnessInputs.h"
#include "ir/Builder.h"
#include "passes/DCE.h"
#include "regalloc/Lifetime.h"
#include "target/LowerCalls.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lsra;

namespace {

struct Built {
  Module M;
  Function *F = nullptr;
  std::unique_ptr<Numbering> Num;
  std::unique_ptr<Liveness> LV;
  std::unique_ptr<LoopInfo> LI;
  std::unique_ptr<LifetimeAnalysis> LT;

  void analyse() {
    TargetDesc TD = TargetDesc::alphaLike();
    Num = std::make_unique<Numbering>(*F);
    LV = std::make_unique<Liveness>(*F, TD);
    LI = std::make_unique<LoopInfo>(*F);
    LT = std::make_unique<LifetimeAnalysis>(*F, *Num, *LV, *LI, TD);
  }
};

TEST(Lifetime, SegmentQueries) {
  Lifetime L;
  L.Segs = {{2, 6}, {10, 14}, {20, 21}};
  EXPECT_EQ(L.startPos(), 2u);
  EXPECT_EQ(L.endPos(), 21u);
  EXPECT_TRUE(L.liveAt(2));
  EXPECT_TRUE(L.liveAt(5));
  EXPECT_FALSE(L.liveAt(6)); // end is exclusive
  EXPECT_FALSE(L.liveAt(1));
  EXPECT_FALSE(L.liveAt(8));
  EXPECT_TRUE(L.liveAt(20));
  EXPECT_FALSE(L.liveAt(21));

  EXPECT_EQ(L.holeEndAfter(3), 3u);   // live: not in a hole
  EXPECT_EQ(L.holeEndAfter(7), 10u);  // hole until the next segment
  EXPECT_EQ(L.holeEndAfter(0), 2u);   // before the first segment
  EXPECT_EQ(L.holeEndAfter(21), InfPos); // after the lifetime
}

TEST(Lifetime, OverlapAndHoleFitting) {
  Lifetime A, B, C;
  A.Segs = {{2, 6}, {10, 14}};
  B.Segs = {{6, 10}}; // exactly in A's hole
  C.Segs = {{5, 8}};
  EXPECT_FALSE(A.overlaps(B));
  EXPECT_TRUE(A.overlaps(C));
  EXPECT_TRUE(B.fitsInHolesOf(A, 0));
  EXPECT_FALSE(C.fitsInHolesOf(A, 0));
  // fitsInHolesOf only considers segments from `From` onward.
  EXPECT_TRUE(C.fitsInHolesOf(A, 6));
}

TEST(Lifetime, ReverseConstructionMergesAdjacentSegments) {
  Lifetime L;
  L.addSegmentFront(10, 14);
  L.addSegmentFront(6, 10); // adjacent: merge
  L.addSegmentFront(2, 4);  // gap: new segment
  L.finalize();
  ASSERT_EQ(L.Segs.size(), 2u);
  EXPECT_EQ(L.Segs[0].Start, 2u);
  EXPECT_EQ(L.Segs[0].End, 4u);
  EXPECT_EQ(L.Segs[1].Start, 6u);
  EXPECT_EQ(L.Segs[1].End, 14u);
}

/// Straight-line: t defined at 0, last used at 2, u defined at 3.
/// They are adjacent, not overlapping, so one register could serve both.
TEST(LifetimeAnalysis, StraightLineDefUse) {
  Built Bu;
  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned T = B.movi(1);       // index 0: def at 1
  unsigned U = B.addi(T, 2);    // index 1: use at 2, def at 3
  unsigned V = B.addi(U, 3);    // index 2: use at 4, def at 5
  B.retVal(V);                  // index 3: lowered later; use of V
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();

  const Lifetime &LT_T = Bu.LT->vreg(T);
  ASSERT_EQ(LT_T.Segs.size(), 1u);
  EXPECT_EQ(LT_T.Segs[0].Start, 1u); // def point of index 0
  EXPECT_EQ(LT_T.Segs[0].End, 3u);   // dies at the use in index 1
  const Lifetime &LT_U = Bu.LT->vreg(U);
  EXPECT_EQ(LT_U.startPos(), 3u);
  EXPECT_FALSE(LT_T.overlaps(LT_U));
  // References recorded in order with def/use flags.
  ASSERT_EQ(LT_T.Refs.size(), 2u);
  EXPECT_TRUE(LT_T.Refs[0].IsDef);
  EXPECT_FALSE(LT_T.Refs[1].IsDef);
  EXPECT_EQ(LT_T.nextRefAfter(2)->Pos, 2u);
  EXPECT_EQ(LT_T.nextRefAfter(3), nullptr);
}

TEST(LifetimeAnalysis, DeadDefGetsPointSegment) {
  Built Bu;
  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::None);
  B.setBlock(B.newBlock("entry"));
  unsigned T = B.movi(1); // dead
  (void)T;
  B.retVoid();
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();
  const Lifetime &L = Bu.LT->vreg(T);
  ASSERT_EQ(L.Segs.size(), 1u);
  EXPECT_EQ(L.Segs[0].End, L.Segs[0].Start + 1);
}

/// The Figure 1 shape: a temporary whose lifetime has a hole across a
/// block in the linear order (T1 used in B2 and B4 but not B3 — wait, in
/// Figure 1 T1 is live through; here we build the hole variant: defined in
/// B1, dead through B2, redefined and used in B3).
TEST(LifetimeAnalysis, HoleAcrossLinearBlocks) {
  Built Bu;
  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::None);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  Block &B3 = B.newBlock("B3");
  B.setBlock(B1);
  unsigned T = B.movi(1);
  B.emitValue(T); // last use of first segment
  B.br(B2);
  B.setBlock(B2);
  unsigned X = B.movi(5);
  B.emitValue(X);
  B.br(B3);
  B.setBlock(B3);
  B.emit(Instr(Opcode::MovI, Operand::vreg(T), Operand::imm(2))); // redefine
  B.emitValue(T);
  B.retVoid();
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();

  const Lifetime &L = Bu.LT->vreg(T);
  ASSERT_EQ(L.Segs.size(), 2u) << "expected a lifetime hole across B2";
  unsigned HoleStart = L.Segs[0].End;
  unsigned HoleEnd = L.Segs[1].Start;
  EXPECT_LT(HoleStart, HoleEnd);
  // The hole spans all of B2.
  EXPECT_LE(HoleStart, Bu.Num->blockStartPos(B2.id()));
  EXPECT_GE(HoleEnd, Bu.Num->blockEndPos(B2.id()));
}

/// Live-through values have no hole even across blocks that never mention
/// them (the conservative linear view).
TEST(LifetimeAnalysis, LiveThroughHasNoHole) {
  Built Bu;
  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::Int);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  Block &B3 = B.newBlock("B3");
  B.setBlock(B1);
  unsigned T = B.movi(1);
  B.br(B2);
  B.setBlock(B2);
  unsigned X = B.movi(5);
  B.emitValue(X);
  B.br(B3);
  B.setBlock(B3);
  B.retVal(T);
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();
  // One contiguous segment from the def to the (lowered) return move.
  EXPECT_EQ(Bu.LT->vreg(T).Segs.size(), 1u);
}

TEST(LifetimeAnalysis, CallClobberCreatesFixedPointSegments) {
  Built Bu;
  FunctionBuilder Callee(Bu.M, "g", 0, 0, CallRetKind::None);
  Callee.setBlock(Callee.newBlock("entry"));
  Callee.retVoid();

  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::None);
  B.setBlock(B.newBlock("entry"));
  B.call(Callee.function(), {});
  B.retVoid();
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();

  TargetDesc TD = TargetDesc::alphaLike();
  // Every caller-saved register has a fixed (point) segment at the call;
  // callee-saved registers have none.
  unsigned CallerSegs = 0;
  for (unsigned P = 0; P < NumPRegs; ++P) {
    if (TD.isCallerSaved(P))
      CallerSegs += !Bu.LT->pregFixed(P).empty();
    else if (TD.isCalleeSaved(P)) {
      EXPECT_TRUE(Bu.LT->pregFixed(P).empty());
    }
  }
  EXPECT_EQ(CallerSegs, 38u);
}

TEST(LifetimeAnalysis, ArgumentRegistersFixedThroughCallSetup) {
  Built Bu;
  FunctionBuilder Callee(Bu.M, "g", 1, 0, CallRetKind::Int);
  Callee.setBlock(Callee.newBlock("entry"));
  Callee.retVal(Callee.intParam(0));

  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::Int);
  B.setBlock(B.newBlock("entry"));
  unsigned A = B.movi(7);
  unsigned R = B.call(Callee.function(), {A});
  B.retVal(R);
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();

  // $16 is fixed from the argument move's def until just past the call.
  const Lifetime &A0 = Bu.LT->pregFixed(TargetDesc::intArgReg(0));
  ASSERT_FALSE(A0.empty());
  // $0 is fixed from the call (ret def) to the result move.
  const Lifetime &R0 = Bu.LT->pregFixed(TargetDesc::intRetReg());
  ASSERT_FALSE(R0.empty());
  // nextFixedUse from position 0 finds the upcoming segment start.
  EXPECT_EQ(Bu.LT->nextFixedUse(TargetDesc::intArgReg(0), 0),
            A0.Segs[0].Start);
  // Inside the segment, the register is fixed right now.
  EXPECT_EQ(Bu.LT->nextFixedUse(TargetDesc::intArgReg(0), A0.Segs[0].Start),
            A0.Segs[0].Start);
}

TEST(Lifetime, ArtifactGapApis) {
  // Segment 2 is a live-in continuation: the gap before it is not a true
  // hole (the value flows around it on a CFG edge); segment 3 starts at a
  // def, so the gap before it is real.
  Lifetime L;
  L.Segs = {{2, 6, false}, {10, 14, true}, {20, 22, false}};
  EXPECT_FALSE(L.holeIsRealAt(7));  // before a live-in segment
  EXPECT_TRUE(L.holeIsRealAt(15));  // before a def-started segment
  EXPECT_TRUE(L.holeIsRealAt(30));  // after the lifetime: dead
  Lifetime F = L.withArtifactGapsFilled();
  ASSERT_EQ(F.Segs.size(), 2u);
  EXPECT_EQ(F.Segs[0].Start, 2u);
  EXPECT_EQ(F.Segs[0].End, 14u); // artifact gap filled
  EXPECT_EQ(F.Segs[1].Start, 20u);
}

TEST(LifetimeAnalysis, ArtifactGapDetectedAcrossSkippedBlock) {
  // T defined in B1 and used in B3, with B2 (the other branch arm) between
  // them in the linear order: T's linear gap across B2 must be flagged as
  // a live-in continuation, not a hole.
  Built Bu;
  FunctionBuilder B(Bu.M, "f", 0, 0, CallRetKind::None);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  Block &B3 = B.newBlock("B3");
  B.setBlock(B1);
  unsigned T = B.movi(1);
  unsigned C = B.movi(0);
  B.cbr(C, B2, B3);
  B.setBlock(B2);
  B.emitValue(B.movi(9));
  B.retVoid();
  B.setBlock(B3);
  B.emitValue(T); // T flows B1 -> B3 around B2
  B.retVoid();
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();
  const Lifetime &L = Bu.LT->vreg(T);
  ASSERT_EQ(L.Segs.size(), 2u);
  EXPECT_TRUE(L.Segs[1].LiveInStart);
  unsigned GapPos = L.Segs[0].End;
  EXPECT_FALSE(L.holeIsRealAt(GapPos));
  EXPECT_EQ(L.withArtifactGapsFilled().Segs.size(), 1u);
}

/// Figure 1's point: T3 fits entirely inside T1's hole, so both could share
/// a register.
TEST(LifetimeAnalysis, Figure1HoleSharing) {
  Built Bu;
  FunctionBuilder B(Bu.M, "fig1", 0, 0, CallRetKind::None);
  Block &B1 = B.newBlock("B1");
  Block &B2 = B.newBlock("B2");
  B.setBlock(B1);
  unsigned T1 = B.movi(1);
  B.emitValue(T1);                 // T1's first segment ends here
  unsigned T3 = B.movi(3);         // T3 lives inside T1's hole
  B.emitValue(T3);
  B.br(B2);
  B.setBlock(B2);
  B.emit(Instr(Opcode::MovI, Operand::vreg(T1), Operand::imm(9)));
  B.emitValue(T1);
  B.retVoid();
  Bu.F = &B.function();
  lowerCalls(*Bu.F);
  Bu.analyse();

  const Lifetime &L1 = Bu.LT->vreg(T1);
  const Lifetime &L3 = Bu.LT->vreg(T3);
  ASSERT_EQ(L1.Segs.size(), 2u);
  EXPECT_FALSE(L1.overlaps(L3));
  EXPECT_TRUE(L3.fitsInHolesOf(L1, 0));
}

/// Lifetime segments by the original construction: the same reverse pass,
/// but every vreg still open at a block top is closed there (a sweep over
/// all vregs), and segments are kept as plain (start, end, live-in) lists.
struct ReferenceLifetimes {
  struct Seg {
    unsigned Start, End;
    bool LiveIn;
    bool operator==(const Seg &R) const {
      return Start == R.Start && End == R.End && LiveIn == R.LiveIn;
    }
  };
  std::vector<std::vector<Seg>> VRegs, PRegs;

  static void addFront(std::vector<Seg> &Segs, unsigned Start, unsigned End,
                       bool LiveIn) {
    if (!Segs.empty() && End >= Segs.back().Start) {
      if (Start < Segs.back().Start)
        Segs.back() = {Start, Segs.back().End, LiveIn};
      return;
    }
    Segs.push_back({Start, End, LiveIn});
  }

  ReferenceLifetimes(const Function &F, const Numbering &Num,
                     const Liveness &LV, const TargetDesc &TD)
      : VRegs(F.numVRegs()), PRegs(NumPRegs) {
    unsigned NumV = F.numVRegs();
    std::vector<unsigned> VEnd(NumV, 0), PEnd(NumPRegs, 0);
    for (unsigned B = F.numBlocks(); B-- > 0;) {
      const Block &Blk = F.block(B);
      LV.liveOut(B).forEach(
          [&](unsigned V) { VEnd[V] = Num.blockEndPos(B); });
      for (unsigned Idx = Blk.size(); Idx-- > 0;) {
        const Instr &I = Blk.instrs()[Idx];
        unsigned G = Num.instrIndex(B, Idx);
        unsigned UsePos = Numbering::usePos(G), DefPos = Numbering::defPos(G);
        forEachDefinedReg(I, [&](const Operand &Op) {
          bool V = Op.isVReg();
          unsigned R = V ? Op.vregId() : Op.pregId();
          unsigned &End = V ? VEnd[R] : PEnd[R];
          addFront(V ? VRegs[R] : PRegs[R], DefPos, End ? End : DefPos + 1,
                   false);
          End = 0;
        });
        forEachClobberedReg(I, TD, [&](unsigned P) {
          addFront(PRegs[P], DefPos, PEnd[P] ? PEnd[P] : DefPos + 1, false);
          PEnd[P] = 0;
        });
        forEachUsedReg(I, [&](const Operand &Op) {
          unsigned &End = Op.isVReg() ? VEnd[Op.vregId()] : PEnd[Op.pregId()];
          if (!End)
            End = UsePos + 1;
        });
      }
      for (unsigned V = 0; V < NumV; ++V)
        if (VEnd[V]) {
          addFront(VRegs[V], Num.blockStartPos(B), VEnd[V], true);
          VEnd[V] = 0;
        }
      for (unsigned P = 0; P < NumPRegs; ++P)
        if (PEnd[P]) {
          addFront(PRegs[P], Num.blockStartPos(B), PEnd[P], false);
          PEnd[P] = 0;
        }
    }
    for (auto &S : VRegs)
      std::reverse(S.begin(), S.end());
    for (auto &S : PRegs)
      std::reverse(S.begin(), S.end());
  }
};

std::vector<ReferenceLifetimes::Seg> segsOf(const Lifetime &LT) {
  std::vector<ReferenceLifetimes::Seg> Out;
  for (const Segment &S : LT.Segs)
    Out.push_back({S.Start, S.End, S.LiveInStart});
  return Out;
}

TEST(Exactness, LifetimesMatchReference) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (auto &[Name, M] : exactnessInputs()) {
    eliminateDeadCode(*M, TD);
    for (const auto &F : M->functions()) {
      Numbering Num(*F);
      Liveness LV(*F, TD);
      LoopInfo LI(*F);
      LifetimeAnalysis LT(*F, Num, LV, LI, TD);
      ReferenceLifetimes Ref(*F, Num, LV, TD);
      for (unsigned V = 0; V < F->numVRegs(); ++V)
        ASSERT_EQ(segsOf(LT.vreg(V)), Ref.VRegs[V])
            << Name << " " << F->name() << " %" << V;
      for (unsigned P = 0; P < NumPRegs; ++P)
        ASSERT_EQ(segsOf(LT.pregFixed(P)), Ref.PRegs[P])
            << Name << " " << F->name() << " preg " << P;
    }
  }
}

} // namespace
