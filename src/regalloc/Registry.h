//===- regalloc/Registry.h - Allocator backend registry --------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator backend registry. Every backend describes itself once — a
/// stable kind id, the canonical name, its CLI aliases, capability flags,
/// and a run entry point — and every consumer (the allocateFunction
/// dispatch, CLI flag parsing, the fuzz grid, the compare/bench tools)
/// enumerates the registry instead of repeating a hard-coded switch.
/// Adding a backend is now one registration line plus its own TU; nothing
/// else in the tree names the new kind.
///
/// Kind ids are stable by construction: AllocatorKind enumerators are
/// appended, never reordered, because their integer value participates in
/// compile-cache keys (cache::makeModuleKey / makeFunctionKey). The
/// registry asserts registration order matches enumerator order so the
/// table can be indexed by kind directly.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_REGALLOC_REGISTRY_H
#define LSRA_REGALLOC_REGISTRY_H

#include "regalloc/Allocator.h"

#include <vector>

namespace lsra {

class FunctionAnalyses;

/// Capability flags: what a backend consumes (so allocateFunction warms
/// exactly the analyses it needs).
enum AllocatorCaps : unsigned {
  /// Backend consumes global liveness (FunctionAnalyses::liveness).
  CapNeedsLiveness = 1u << 0,
  /// Backend consumes lifetime intervals/holes (…::lifetimes). Implies the
  /// "lifetime.holes" counter is meaningful for it.
  CapNeedsLifetimes = 1u << 1,
  /// Backend consumes the loop forest (…::loops).
  CapNeedsLoops = 1u << 2,
};

/// One registered backend. Run never includes the post-passes (peephole,
/// callee saves, spill cleanup); allocateFunction owns those uniformly.
struct AllocatorInfo {
  AllocatorKind Kind;       ///< stable id (== index in the registry)
  const char *Name;         ///< canonical name (allocatorName)
  std::vector<const char *> Aliases; ///< extra accepted CLI spellings
  unsigned Caps = 0;        ///< AllocatorCaps bits
  AllocStats (*Run)(Function &F, const TargetDesc &TD,
                    const AllocOptions &Opts, FunctionAnalyses &FA) = nullptr;

  bool needs(AllocatorCaps C) const { return (Caps & C) != 0; }
};

/// Registry of every built-in backend, in AllocatorKind order. The process
/// singleton is populated eagerly on first use (deterministic order, no
/// static-initialisation or archive-linking surprises).
class AllocatorRegistry {
public:
  static const AllocatorRegistry &global();

  const AllocatorInfo &info(AllocatorKind K) const;
  /// Lookup by canonical name or alias; nullptr when unknown.
  const AllocatorInfo *findByName(const std::string &Name) const;

  const std::vector<AllocatorInfo> &all() const { return Table; }
  /// Every registered kind, in stable id order — the enumeration the fuzz
  /// grid, `lsra compare`, and the bench tools iterate.
  std::vector<AllocatorKind> kinds() const;

  /// Registration hook for the built-in table (Registry.cpp). Asserts that
  /// ids arrive densely in enumerator order.
  void add(AllocatorInfo Info);

private:
  AllocatorRegistry() = default;
  std::vector<AllocatorInfo> Table;
};

} // namespace lsra

#endif // LSRA_REGALLOC_REGISTRY_H
