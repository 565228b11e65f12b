//===- regalloc/Resolver.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Resolver.h"

#include "analysis/Order.h"
#include "regalloc/ParallelCopy.h"

using namespace lsra;

namespace {

struct Edge {
  unsigned Pred;
  unsigned Succ;
};

} // namespace

ResolveCounts lsra::resolveEdges(Function &F, const ResolverInput &In,
                                 SpillSlots &Slots) {
  ResolveCounts Counts;
  const BoundaryLocs &Tops = *In.Top;
  const BoundaryLocs &Bottoms = *In.Bottom;

  // Collect the original edges and predecessor counts before any splitting
  // mutates the CFG.
  unsigned OrigBlocks = F.numBlocks();
  std::vector<Edge> Edges;
  std::vector<unsigned> PredCount(OrigBlocks, 0);
  std::vector<unsigned> SuccCount(OrigBlocks, 0);
  for (unsigned B = 0; B < OrigBlocks; ++B) {
    auto Succs = F.block(B).successors();
    SuccCount[B] = static_cast<unsigned>(Succs.size());
    for (unsigned S : Succs) {
      Edges.push_back({B, S});
      ++PredCount[S];
    }
  }

  for (const Edge &E : Edges) {
    ParallelCopy PC;
    // Only temps held in a register at either end need code (mem -> mem
    // needs nothing). Merge the predecessor's bottom and the successor's
    // top by vreg id, so temps are visited in ascending order.
    const std::vector<BoundaryLoc> &Bots = Bottoms[E.Pred];
    const std::vector<BoundaryLoc> &TopRegs = Tops[E.Succ];
    Liveness::Set LiveInS = In.LV->liveIn(E.Succ);
    size_t J = 0, K = 0;
    while (J < Bots.size() || K < TopRegs.size()) {
      const BoundaryLoc *BotL = nullptr, *TopL = nullptr;
      if (K == TopRegs.size() ||
          (J < Bots.size() && Bots[J].V <= TopRegs[K].V))
        BotL = &Bots[J++];
      if (K < TopRegs.size() && (!BotL || TopRegs[K].V == BotL->V))
        TopL = &TopRegs[K++];
      unsigned V = BotL ? BotL->V : TopL->V;
      if (!TopL && !LiveInS.test(V))
        continue; // live out of the predecessor along another edge only
      if (BotL && TopL) {
        unsigned From = regOfLoc(BotL->Loc), To = regOfLoc(TopL->Loc);
        if (From != To)
          PC.addMove(V, From, To);
        // The successor may rely on consistency that does not hold at the
        // predecessor even though the temp stays in a register.
        if (In.CI && !BotL->Consistent && In.CI->usedAtEntry(E.Succ, V))
          PC.addStore(V, From);
      } else if (BotL) {
        // Register at the bottom, memory at the top: store, "but only if
        // the temporary's allocated register and memory home are
        // inconsistent" (§2.4). The scan registered each suppression as a
        // use of consistency at P's exit (UsedAtExit), so the dataflow
        // makes it sound along every path into P.
        if (!BotL->Consistent)
          PC.addStore(V, regOfLoc(BotL->Loc));
      } else {
        // Memory (or not-yet-materialised) at the bottom, register at the
        // top: load from the memory home.
        PC.addLoad(V, regOfLoc(TopL->Loc));
      }
    }
    if (PC.empty())
      continue;

    std::vector<Instr> Seq;
    PC.emit(Seq, Slots, F);
    for (const Instr &I : Seq) {
      switch (I.Spill) {
      case SpillKind::ResolveLoad:
        ++Counts.Loads;
        break;
      case SpillKind::ResolveStore:
        ++Counts.Stores;
        break;
      case SpillKind::ResolveMove:
        ++Counts.Moves;
        break;
      default:
        break;
      }
    }

    // Placement (§2.4 footnote 1). Placing at the bottom of the predecessor
    // is only safe when its terminator reads no registers (an unconditional
    // branch); a CBr's condition register could otherwise be clobbered by
    // the inserted code. The entry block is never a valid top-of-successor
    // target even with a single explicit predecessor: it has an implicit
    // second predecessor (function entry), and back-edge resolution code
    // placed there would also run before the first iteration.
    if (PredCount[E.Succ] == 1 && E.Succ != 0) {
      Block &S = F.block(E.Succ);
      for (unsigned I = 0; I < Seq.size(); ++I)
        S.insertAt(I, Seq[I]);
    } else if (SuccCount[E.Pred] == 1 &&
               F.block(E.Pred).terminator().opcode() == Opcode::Br) {
      Block &P = F.block(E.Pred);
      for (const Instr &I : Seq)
        P.insertBeforeTerminator(I);
    } else {
      Block &NewB = splitEdge(F, E.Pred, E.Succ);
      for (unsigned I = 0; I < Seq.size(); ++I)
        NewB.insertAt(I, Seq[I]);
      ++Counts.SplitEdges;
    }
  }
  return Counts;
}
