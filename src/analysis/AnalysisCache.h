//===- analysis/AnalysisCache.h - Per-function analysis cache --*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lazily computed, shareable per-function analyses. The paper attaches
/// liveness "to the CFG prior to register allocation" by a shared library;
/// this cache is that library's memoisation layer: each analysis is built
/// at most once per function and handed out as a const reference, instead
/// of every allocator privately rebuilding the same order/liveness/loop
/// structures.
///
/// Derived analyses share their prerequisites through the cache: Liveness
/// seeds its worklist with the cached reverse post-order, Dominators reuse
/// the same order, and Loops build on the cached Dominators.
///
/// The cache holds const references into the Function; any pass that
/// mutates the IR must call invalidate() before the next analysis request.
/// One FunctionAnalyses instance serves exactly one function and is not
/// thread-safe; parallel module compilation gives each worker its own
/// instance for the function it owns.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_ANALYSIS_ANALYSISCACHE_H
#define LSRA_ANALYSIS_ANALYSISCACHE_H

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "analysis/Order.h"
#include "regalloc/Lifetime.h"

#include <memory>
#include <vector>

namespace lsra {

class FunctionAnalyses {
public:
  FunctionAnalyses(const Function &F, const TargetDesc &TD) : F(F), TD(TD) {}

  const Function &function() const { return F; }

  /// Block ids in reverse post-order from the entry.
  const std::vector<unsigned> &rpo();

  /// The static linear order's position numbering.
  const Numbering &numbering();

  /// Backward bit-vector liveness (worklist seeded from rpo()).
  const Liveness &liveness();

  const Dominators &dominators();

  /// Natural loops and depths, built on dominators().
  const LoopInfo &loops();

  /// Lifetimes with holes over the linear order, built from numbering(),
  /// liveness(), and loops().
  const LifetimeAnalysis &lifetimes();

  /// Drop every cached analysis. Must be called after any IR mutation of
  /// the function before further analyses are requested.
  void invalidate();

  /// After an edit that deleted instructions but no terminator, install
  /// \p LV, which the editing pass kept equal to a fresh solve on the
  /// edited function, so liveness() is not solved again. The block order,
  /// dominators and loops depend only on the CFG and stay cached; the
  /// numbering and lifetimes are dropped. Dead-code elimination hands its
  /// liveness to the allocator this way.
  void adoptLiveness(std::unique_ptr<Liveness> LV);

private:
  const Function &F;
  const TargetDesc &TD;

  std::unique_ptr<std::vector<unsigned>> RPO;
  std::unique_ptr<Numbering> Num;
  std::unique_ptr<Liveness> LV;
  std::unique_ptr<Dominators> Dom;
  std::unique_ptr<LoopInfo> LI;
  std::unique_ptr<LifetimeAnalysis> LT;
};

} // namespace lsra

#endif // LSRA_ANALYSIS_ANALYSISCACHE_H
