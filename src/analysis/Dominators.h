//===- analysis/Dominators.h - Dominator tree ------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immediate dominators via the Cooper–Harvey–Kennedy iterative algorithm.
/// Used by the natural-loop analysis that supplies the loop depths both
/// allocators weight their spill heuristics with.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_ANALYSIS_DOMINATORS_H
#define LSRA_ANALYSIS_DOMINATORS_H

#include "ir/Function.h"

#include <vector>

namespace lsra {

class Dominators {
public:
  explicit Dominators(const Function &F);

  /// As above, but reusing a precomputed reverse post-order (e.g. the one
  /// cached in FunctionAnalyses) instead of recomputing it.
  Dominators(const Function &F, const std::vector<unsigned> &RPO);

  /// Immediate dominator of \p B; the entry's idom is itself. ~0u for
  /// unreachable blocks.
  unsigned idom(unsigned B) const { return IDom[B]; }

  /// True if \p A dominates \p B (reflexive). O(1): A's subtree of the
  /// dominator tree holds the preorder numbers [Pre[A], Pre[A] + Size[A]).
  bool dominates(unsigned A, unsigned B) const {
    return isReachable(A) && isReachable(B) && Pre[B] >= Pre[A] &&
           Pre[B] - Pre[A] < Size[A];
  }

  bool isReachable(unsigned B) const { return IDom[B] != ~0u; }

private:
  std::vector<unsigned> IDom;
  std::vector<unsigned> RPONumber;
  /// Dominator-tree preorder number and subtree size of each reachable
  /// block.
  std::vector<unsigned> Pre, Size;
};

} // namespace lsra

#endif // LSRA_ANALYSIS_DOMINATORS_H
