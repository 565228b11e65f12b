//===- analysis/Liveness.h - Bit-vector liveness ---------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative backward bit-vector liveness over virtual registers. Both the
/// paper's allocators consume liveness "attached to the CFG prior to
/// register allocation" by a shared library; this is that library.
///
/// Physical registers are deliberately excluded from the cross-block sets:
/// after LowerCalls, every physical-register live range in this IR is local
/// to one block (argument setup immediately precedes the call; result moves
/// immediately follow it; entry moves copy argument registers away at the
/// top of the entry block).
///
/// The sets are bit vectors over the function's global vregs only: those
/// read in some block before any write there (the "global names" of
/// semi-pruned SSA). No other vreg can be live at a block boundary, and in
/// the code-heavy programs they are about a tenth of all vregs, so the
/// blocks x vregs tables shrink by that factor.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_ANALYSIS_LIVENESS_H
#define LSRA_ANALYSIS_LIVENESS_H

#include "ir/Function.h"
#include "support/BitVector.h"
#include "target/Target.h"

#include <vector>

namespace lsra {

class Liveness {
public:
  /// Compute liveness for \p F (calls must already be lowered). The
  /// fixpoint is a worklist seeded in post-order (the reverse of \p RPO),
  /// which converges in one visit per block on acyclic CFGs and one extra
  /// visit per enclosing back edge otherwise. When \p RPO is null the
  /// order is computed internally; pass the cached order from
  /// FunctionAnalyses to share it.
  Liveness(const Function &F, const TargetDesc &TD,
           const std::vector<unsigned> *RPO = nullptr);

  /// The vregs live at one block boundary.
  class Set {
  public:
    Set(const Liveness &LV, const BitVector &Bits) : LV(&LV), Bits(&Bits) {}

    bool test(unsigned V) const {
      unsigned G = V < LV->GlobalOf.size() ? LV->GlobalOf[V] : ~0u;
      return G != ~0u && Bits->test(G);
    }
    /// Call \p Fn with each vreg of the set, in ascending id order.
    template <typename Fn> void forEach(Fn &&F) const {
      Bits->forEachSetBit([&](unsigned G) { F(LV->Globals[G]); });
    }
    /// Call \p Fn with each vreg of this set that \p Other (a set of the
    /// same solve) lacks, in ascending id order, a word at a time.
    template <typename Fn> void forEachNotIn(const Set &Other, Fn &&F) const {
      assert(LV == Other.LV && "sets of different solves");
      Bits->forEachSetBitNotIn(*Other.Bits,
                               [&](unsigned G) { F(LV->Globals[G]); });
    }
    unsigned count() const { return Bits->count(); }
    /// Same vregs (the two sets may come from different solves).
    bool operator==(const Set &R) const;
    bool operator!=(const Set &R) const { return !(*this == R); }

  private:
    const Liveness *LV;
    const BitVector *Bits;
  };

  Set liveIn(unsigned B) const { return Set(*this, LiveIn[B]); }
  Set liveOut(unsigned B) const { return Set(*this, LiveOut[B]); }

  /// True if \p V appears in any block's live-in or live-out set, i.e. its
  /// lifetime crosses a basic-block boundary. The paper excludes purely
  /// local temporaries from the dataflow universes of both allocators.
  bool isCrossBlock(unsigned V) const { return CrossBlock.test(V); }
  const BitVector &crossBlockSet() const { return CrossBlock; }

  unsigned numVRegs() const { return NumVRegs; }

  /// Number of block relaxations the worklist performed (>= numBlocks();
  /// equal to it for acyclic CFGs).
  unsigned numIterations() const { return Iterations; }

  /// Bring the sets up to date after an edit of \p F that deleted whole
  /// instructions, each one a write of a vreg that no path reads before
  /// the next write (a dead def), and no terminator. Such an edit never
  /// changes the sets of a vreg that lost no read, and only shrinks those
  /// of the vregs in \p LostReads, which lists every vreg the edit deleted
  /// a read of (repeats allowed). Those vregs' bits are cleared and solved again with the
  /// same worklist, masked to them, so the result equals a fresh solve on
  /// the edited function. \p RPO as in the constructor.
  void removeReads(const Function &F, const std::vector<unsigned> &LostReads,
                   const std::vector<unsigned> *RPO = nullptr);

private:
  unsigned NumVRegs;
  unsigned Iterations = 0;
  std::vector<unsigned> GlobalOf; ///< vreg -> bit index, ~0u if not global
  std::vector<unsigned> Globals;  ///< bit index -> vreg, ascending
  std::vector<BitVector> LiveIn, LiveOut;
  BitVector CrossBlock; ///< over all vregs

  /// Per block, the bit indices of the global vregs it reads before any
  /// write (Uses) and of those it writes (Defs), restricted to \p Only
  /// when given; Begin[B]..Begin[B+1] delimit block B's entries.
  struct LocalSets {
    std::vector<unsigned> UseBegin, Uses, DefBegin, Defs;
  };
  LocalSets localSets(const Function &F, const BitVector *Only) const;

  /// Worklist fixpoint over the bits of \p Mask (all bits when null),
  /// starting from LiveIn |= the local reads; the bits outside \p Mask
  /// must already be a fixpoint. Returns the number of block visits.
  unsigned solve(const Function &F, const LocalSets &L, const BitVector *Mask,
                 const std::vector<unsigned> *RPO);
};

} // namespace lsra

#endif // LSRA_ANALYSIS_LIVENESS_H
