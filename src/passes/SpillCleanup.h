//===- passes/SpillCleanup.h - Store/load pair cleanup --------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimisation the paper sketches as follow-on work in §2.4: "run a
/// later code motion pass that tries to sink stores and hoist loads until
/// they meet. When loads and stores to the same stack location meet, we
/// can replace the two operations with a move from the store's source
/// register to the load's destination register."
///
/// This implementation tracks which register mirrors each frame slot,
/// across blocks by a forward dataflow (see SpillCleanup.cpp), and
///   - deletes a reload whose destination already holds the slot's value,
///   - rewrites a reload into a register move when the value is still
///     available in another register, and
///   - deletes a store that is provably redundant (the slot already holds
///     the same register's value).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_PASSES_SPILLCLEANUP_H
#define LSRA_PASSES_SPILLCLEANUP_H

#include "ir/Module.h"
#include "target/Target.h"

namespace lsra {

struct SpillCleanupStats {
  unsigned LoadsDeleted = 0;
  unsigned LoadsToMoves = 0;
  unsigned StoresDeleted = 0;
  unsigned total() const { return LoadsDeleted + LoadsToMoves + StoresDeleted; }
};

/// Run the cleanup on allocated code (physical registers only).
SpillCleanupStats cleanupSpillCode(Function &F, const TargetDesc &TD);

/// Run on every function of \p M.
SpillCleanupStats cleanupSpillCode(Module &M, const TargetDesc &TD);

} // namespace lsra

#endif // LSRA_PASSES_SPILLCLEANUP_H
