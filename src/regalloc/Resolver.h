//===- regalloc/Resolver.h - CFG edge resolution ---------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resolution phase of §2.4: the linear allocate/rewrite scan models
/// control flow incompletely, so after the scan we traverse every CFG edge
/// and reconcile the allocation assumptions recorded at the bottom of the
/// predecessor with those at the top of the successor, inserting loads,
/// stores, and moves (with correct parallel-copy ordering). Resolution code
/// is placed at the top of a single-predecessor successor, at the bottom of
/// a single-successor predecessor, or on a freshly split critical edge
/// (footnote 1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_REGALLOC_RESOLVER_H
#define LSRA_REGALLOC_RESOLVER_H

#include "analysis/Liveness.h"
#include "regalloc/Consistency.h"
#include "regalloc/SpillSlots.h"

#include <vector>

namespace lsra {

/// Encoded location of a temporary at a block boundary:
/// 0 = nowhere (no value yet on the linear path; treated as memory),
/// 1 = memory home, 2+P = physical register P.
using LocCode = uint8_t;
constexpr LocCode LocNowhere = 0;
constexpr LocCode LocMem = 1;
inline LocCode locReg(unsigned P) { return static_cast<LocCode>(2 + P); }
inline bool isRegLoc(LocCode C) { return C >= 2; }
inline unsigned regOfLoc(LocCode C) {
  assert(isRegLoc(C) && "not a register location");
  return C - 2;
}

/// Static counts of inserted resolution code.
struct ResolveCounts {
  unsigned Loads = 0;
  unsigned Stores = 0;
  unsigned Moves = 0;
  unsigned SplitEdges = 0;
};

/// A temporary held in a register at a block boundary.
struct BoundaryLoc {
  unsigned V;
  LocCode Loc; ///< always a register location
  /// At a block bottom: the temp's register and memory home agree
  /// (ARE_CONSISTENT, §2.4). Unused at a block top.
  bool Consistent;
};

/// Per block, the live temps held in registers at its top (live-in) or
/// bottom (live-out), sorted by vreg id; every other live temp is in its
/// memory home. At most one entry per register, so a boundary costs the
/// register file, not the temps live across it.
using BoundaryLocs = std::vector<std::vector<BoundaryLoc>>;

/// Everything the resolver needs from the allocate/rewrite scan.
struct ResolverInput {
  const Liveness *LV = nullptr;
  /// Register-held temps at each block's top and bottom.
  const BoundaryLocs *Top = nullptr;
  const BoundaryLocs *Bottom = nullptr;
  /// Solved consistency dataflow; null when the allocator ran in
  /// conservative mode (then reg->mem stores are inserted whenever the
  /// bottom state is inconsistent, and no extra consistency stores are
  /// needed). A store goes on edge P -> S for a temp whose consistency S
  /// relies on (USED_C_in(S)) but that is not consistent at P's bottom.
  const ConsistencyInfo *CI = nullptr;
};

/// Run resolution over every CFG edge of \p F.
ResolveCounts resolveEdges(Function &F, const ResolverInput &In,
                           SpillSlots &Slots);

} // namespace lsra

#endif // LSRA_REGALLOC_RESOLVER_H
