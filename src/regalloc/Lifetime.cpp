//===- regalloc/Lifetime.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Lifetime.h"

#include <algorithm>

using namespace lsra;

bool Lifetime::liveAt(unsigned Pos) const {
  auto It = std::upper_bound(
      Segs.begin(), Segs.end(), Pos,
      [](unsigned P, const Segment &S) { return P < S.Start; });
  if (It == Segs.begin())
    return false;
  return std::prev(It)->contains(Pos);
}

unsigned Lifetime::holeEndAfter(unsigned Pos) const {
  auto It = std::upper_bound(
      Segs.begin(), Segs.end(), Pos,
      [](unsigned P, const Segment &S) { return P < S.Start; });
  if (It != Segs.begin() && std::prev(It)->contains(Pos))
    return Pos; // live, not in a hole
  if (It == Segs.end())
    return InfPos;
  return It->Start;
}

bool Lifetime::holeIsRealAt(unsigned Pos) const {
  auto It = std::upper_bound(
      Segs.begin(), Segs.end(), Pos,
      [](unsigned P, const Segment &S) { return P < S.Start; });
  assert((It == Segs.begin() || !std::prev(It)->contains(Pos)) &&
         "position is live, not in a hole");
  if (It == Segs.end())
    return true; // dead for good
  return !It->LiveInStart;
}

Lifetime Lifetime::withArtifactGapsFilled() const {
  // The copy lives in the same arena as the source (heap when standalone),
  // so whole-lifetime allocators building a filled table stay malloc-free.
  Lifetime Out(Segs.get_allocator().arena());
  Out.Refs = Refs;
  for (const Segment &S : Segs) {
    if (!Out.Segs.empty() && S.LiveInStart) {
      // The value survives the gap: extend the previous segment.
      Out.Segs.back().End = S.End;
      continue;
    }
    Out.Segs.push_back(S);
  }
  return Out;
}

const Reference *Lifetime::nextRefAfter(unsigned Pos) const {
  auto It = std::lower_bound(
      Refs.begin(), Refs.end(), Pos,
      [](const Reference &R, unsigned P) { return R.Pos < P; });
  return It == Refs.end() ? nullptr : &*It;
}

bool Lifetime::overlaps(const Lifetime &Other) const {
  auto A = Segs.begin(), AE = Segs.end();
  auto B = Other.Segs.begin(), BE = Other.Segs.end();
  while (A != AE && B != BE) {
    if (A->End <= B->Start)
      ++A;
    else if (B->End <= A->Start)
      ++B;
    else
      return true;
  }
  return false;
}

bool Lifetime::fitsInHolesOf(const Lifetime &Other, unsigned From) const {
  for (const Segment &S : Segs) {
    if (S.End <= From)
      continue;
    unsigned Start = std::max(S.Start, From);
    // Every position of [Start, S.End) must be a hole of Other.
    for (const Segment &O : Other.Segs) {
      if (O.End <= Start)
        continue;
      if (O.Start >= S.End)
        break;
      return false; // overlap with a live segment of Other
    }
  }
  return true;
}

void Lifetime::addSegmentFront(unsigned Start, unsigned End, bool LiveIn) {
  assert(Start < End && "empty segment");
  // Reverse-order construction: new segments arrive at ever-earlier
  // positions; keep them in the (reversed) vector and coalesce with the
  // most recently added (i.e. earliest so far) segment when they touch.
  if (!Segs.empty()) {
    Segment &Last = Segs.back(); // earliest segment added so far
    assert(End <= Last.End && "segments must be added in reverse order");
    if (End >= Last.Start) { // overlap or adjacency: merge
      if (Start < Last.Start) {
        Last.Start = Start;
        Last.LiveInStart = LiveIn; // the new piece is the merged front
      }
      return;
    }
  }
  Segs.push_back({Start, End, LiveIn});
}

void Lifetime::finalize() {
  std::reverse(Segs.begin(), Segs.end());
  std::reverse(Refs.begin(), Refs.end());
}

LifetimeAnalysis::LifetimeAnalysis(const Function &F, const Numbering &Num,
                                   const Liveness &LV, const LoopInfo &LI,
                                   const TargetDesc &TD) {
  unsigned NumV = F.numVRegs();
  VRegLTs.reserve(NumV);
  for (unsigned V = 0; V < NumV; ++V)
    VRegLTs.emplace_back(&Arena);
  for (Lifetime &LT : PRegLTs)
    LT = Lifetime(&Arena);

  // Per-register state during the reverse scan: the end position of the
  // segment currently being built (0 when the register is not live).
  // Liveness is exact, so at a block's top the open vregs are its live-in
  // set. One live out of the block just before it in the linear order
  // stays open across the boundary (the old top-of-block piece and the
  // new bottom-of-block piece would merge anyway, positions being
  // contiguous), so a boundary costs the vregs that start or stop being
  // live there, not every vreg live across it.
  std::vector<unsigned> VEnd(NumV, 0);
  std::array<unsigned, NumPRegs> PEnd{};

  // Single reverse pass over the static linear order (§2.1).
  for (unsigned B = F.numBlocks(); B-- > 0;) {
    const Block &Blk = F.block(B);
    unsigned BlockStart = Num.blockStartPos(B);
    unsigned BlockEnd = Num.blockEndPos(B);
    uint8_t Depth = static_cast<uint8_t>(std::min(LI.depth(B), 255u));

    // Temporaries live out of the block are live through its bottom.
    auto Open = [&](unsigned V) { VEnd[V] = BlockEnd; };
    if (B + 1 < F.numBlocks())
      LV.liveOut(B).forEachNotIn(LV.liveIn(B + 1), Open);
    else
      LV.liveOut(B).forEach(Open);
    // Physical registers never cross block boundaries in this IR.

    for (unsigned Idx = Blk.size(); Idx-- > 0;) {
      const Instr &I = Blk.instrs()[Idx];
      unsigned GIdx = Num.instrIndex(B, Idx);
      unsigned UsePos = Numbering::usePos(GIdx);
      unsigned DefPos = Numbering::defPos(GIdx);

      // Process defs first (we are scanning backward, so defs close the
      // segments opened by later uses).
      forEachDefinedReg(I, [&](const Operand &Op) {
        if (Op.isVReg()) {
          unsigned V = Op.vregId();
          unsigned End = VEnd[V] ? VEnd[V] : DefPos + 1; // dead def: point
          VRegLTs[V].addSegmentFront(DefPos, End);
          VRegLTs[V].Refs.push_back({DefPos, /*IsDef=*/true, Depth});
          VEnd[V] = 0;
        } else {
          unsigned P = Op.pregId();
          unsigned End = PEnd[P] ? PEnd[P] : DefPos + 1;
          PRegLTs[P].addSegmentFront(DefPos, End);
          PEnd[P] = 0;
        }
      });
      // Call clobbers are point defs of every caller-saved register; they
      // make the register's lifetime hole end at the call (§2.5).
      forEachClobberedReg(I, TD, [&](unsigned P) {
        if (PEnd[P]) {
          // Also closes any (illegal) live-through value; the allocators
          // never create one, but fixed code could.
          PRegLTs[P].addSegmentFront(DefPos, PEnd[P]);
          PEnd[P] = 0;
        } else {
          PRegLTs[P].addSegmentFront(DefPos, DefPos + 1);
        }
      });

      forEachUsedReg(I, [&](const Operand &Op) {
        if (Op.isVReg()) {
          unsigned V = Op.vregId();
          if (!VEnd[V])
            VEnd[V] = UsePos + 1;
          VRegLTs[V].Refs.push_back({UsePos, /*IsDef=*/false, Depth});
        } else {
          unsigned P = Op.pregId();
          if (!PEnd[P])
            PEnd[P] = UsePos + 1;
        }
      });
    }

    // Registers still live at the block top extend to the block start
    // (live-in temporaries, or argument registers in the entry block). The
    // LiveIn flag marks that the preceding linear gap, if any, is not a
    // true hole: the value arrives over a CFG edge.
    auto Close = [&](unsigned V) {
      assert(VEnd[V] && "live-in vreg not live at the block top");
      VRegLTs[V].addSegmentFront(BlockStart, VEnd[V], /*LiveIn=*/true);
      VEnd[V] = 0;
    };
    if (B > 0)
      LV.liveIn(B).forEachNotIn(LV.liveOut(B - 1), Close);
    else
      LV.liveIn(B).forEach(Close);
    for (unsigned P = 0; P < NumPRegs; ++P)
      if (PEnd[P]) {
        PRegLTs[P].addSegmentFront(BlockStart, PEnd[P]);
        PEnd[P] = 0;
      }
  }

  for (Lifetime &LT : VRegLTs)
    LT.finalize();
  for (Lifetime &LT : PRegLTs)
    LT.finalize();
}
