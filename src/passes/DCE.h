//===- passes/DCE.h - Dead code elimination --------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness-based dead code elimination. The paper's experimental setup
/// runs DCE immediately before register allocation in both compiler
/// configurations (§3); removing dead definitions shrinks lifetimes and
/// keeps the allocator comparison fair.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_PASSES_DCE_H
#define LSRA_PASSES_DCE_H

#include "ir/Module.h"
#include "target/Target.h"

namespace lsra {

class FunctionAnalyses;

/// Remove instructions that define a virtual register nobody reads and
/// have no other effect. Returns the number of instructions removed.
unsigned eliminateDeadCode(Function &F, const TargetDesc &TD);

/// As above, with the liveness of the result left in \p FA (which must be
/// for \p F): the solve DCE needs is updated exactly for the reads it
/// deleted and handed over, so an allocation that follows with \p FA
/// does not solve liveness again.
unsigned eliminateDeadCode(Function &F, const TargetDesc &TD,
                           FunctionAnalyses &FA);

/// Run DCE over every function of \p M.
unsigned eliminateDeadCode(Module &M, const TargetDesc &TD);

} // namespace lsra

#endif // LSRA_PASSES_DCE_H
