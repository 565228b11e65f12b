//===- regalloc/Consistency.h - Spill-store consistency dataflow -*- C++-*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness dataflow of §2.4: when the allocator inhibits a spill
/// store because a temporary's register and memory home were consistent, the
/// assumption must hold along *all* CFG paths, not just the linear one. The
/// allocator records, per block:
///   - ARE_CONSISTENT at the block bottom (the working vector's snapshot),
///   - USED_CONSISTENCY (GEN): consistency used before any local write, and
///   - WROTE_TR (KILL): the register allocated to t was written in b.
/// Solving
///   USED_C_out(b) = U_{s in succ(b)} USED_C_in(s)
///   USED_C_in(b)  = USED_CONSISTENCY(b) | (USED_C_out(b) - WROTE_TR(b))
/// yields the temps whose consistency is relied upon at entry to each block;
/// resolution inserts a store on edge p->s when USED_C_in(s) is set but
/// ARE_CONSISTENT(p) is clear.
///
/// The recorded sets are sparse: each block lists the cross-block temps
/// (§3) it recorded, a few per eviction or write, so they are sized by the
/// scan's events. USED_C_in can only ever hold a temp that some block
/// relies on (GEN or exit GEN), so the solution is a bit vector per block
/// over those temps alone, not over every temporary. ARE_CONSISTENT at a
/// block bottom lives with the block-boundary locations (Resolver.h).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_REGALLOC_CONSISTENCY_H
#define LSRA_REGALLOC_CONSISTENCY_H

#include "ir/Function.h"
#include "support/BitVector.h"

#include <algorithm>
#include <vector>

namespace lsra {

class ConsistencyInfo {
public:
  explicit ConsistencyInfo(unsigned NumBlocks)
      : UsedConsistency(NumBlocks), WroteTR(NumBlocks), UsedAtExit(NumBlocks) {}

  // Filled by the allocator during the linear scan, per block, with vreg
  // ids in any order (repeats allowed):
  std::vector<std::vector<unsigned>> UsedConsistency; // GEN
  std::vector<std::vector<unsigned>> WroteTR;         // KILL
  /// Additional GEN at the *exit* of each block: the resolver itself relies
  /// on ARE_CONSISTENT(p) when it suppresses a reg->mem store on an
  /// outgoing edge of p (§2.4 "but only if inconsistent"). Registering that
  /// reliance here before solving makes the suppression sound along all
  /// paths, a detail the paper leaves implicit.
  std::vector<std::vector<unsigned>> UsedAtExit;

  /// Solve the backward fixpoint with a worklist swept in post-order (the
  /// reverse of \p RPO, computed when null): a sweep visits only the
  /// blocks queued since their last visit, and a block is queued again
  /// only when a successor's USED_C_in grew. Returns the number of sweeps
  /// that visited a block (the paper reports 2-3 iterations in practice).
  unsigned solve(const Function &F,
                 const std::vector<unsigned> *RPO = nullptr);

  /// Is \p V in USED_C_in(\p B)? (Valid only after solve().)
  bool usedAtEntry(unsigned B, unsigned V) const {
    auto It = std::lower_bound(Relied.begin(), Relied.end(), V);
    return It != Relied.end() && *It == V &&
           UsedCIn[B].test(static_cast<unsigned>(It - Relied.begin()));
  }

private:
  /// The temps some block relies on, sorted; bit I of UsedCIn is
  /// Relied[I].
  std::vector<unsigned> Relied;
  std::vector<BitVector> UsedCIn;
};

} // namespace lsra

#endif // LSRA_REGALLOC_CONSISTENCY_H
