//===- regalloc/Registry.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Registry.h"

#include "regalloc/Binpack.h"
#include "regalloc/Coloring.h"
#include "regalloc/EbbScan.h"
#include "regalloc/Poletto.h"
#include "regalloc/TwoPass.h"

#include <cassert>

using namespace lsra;

void AllocatorRegistry::add(AllocatorInfo Info) {
  assert(static_cast<size_t>(Info.Kind) == Table.size() &&
         "register backends densely, in AllocatorKind order");
  assert(Info.Name && Info.Run && "backend needs a name and an entry point");
  Table.push_back(std::move(Info));
}

const AllocatorRegistry &AllocatorRegistry::global() {
  static AllocatorRegistry R = [] {
    AllocatorRegistry Reg;
    // Order must match the AllocatorKind enumerators: the integer id is
    // part of every compile-cache key, so it is append-only.
    Reg.add({AllocatorKind::SecondChanceBinpack,
             "second-chance-binpack",
             {"binpack", "second-chance"},
             CapNeedsLiveness | CapNeedsLifetimes,
             &runSecondChanceBinpack});
    Reg.add({AllocatorKind::GraphColoring,
             "graph-coloring",
             {"coloring"},
             CapNeedsLiveness | CapNeedsLoops,
             &runGraphColoring});
    Reg.add({AllocatorKind::TwoPassBinpack,
             "two-pass-binpack",
             {"twopass", "two-pass"},
             CapNeedsLiveness | CapNeedsLifetimes,
             &runTwoPassBinpack});
    Reg.add({AllocatorKind::PolettoScan,
             "poletto-scan",
             {"poletto"},
             CapNeedsLiveness | CapNeedsLifetimes,
             &runPolettoScan});
    Reg.add({AllocatorKind::EbbScan,
             "ebb-scan",
             {"ebb", "ebbscan"},
             0, // one pass, no global analyses
             &runEbbScan});
    return Reg;
  }();
  return R;
}

const AllocatorInfo &AllocatorRegistry::info(AllocatorKind K) const {
  size_t I = static_cast<size_t>(K);
  assert(I < Table.size() && "unregistered allocator kind");
  return Table[I];
}

const AllocatorInfo *
AllocatorRegistry::findByName(const std::string &Name) const {
  for (const AllocatorInfo &I : Table) {
    if (Name == I.Name)
      return &I;
    for (const char *A : I.Aliases)
      if (Name == A)
        return &I;
  }
  return nullptr;
}

std::vector<AllocatorKind> AllocatorRegistry::kinds() const {
  std::vector<AllocatorKind> Out;
  Out.reserve(Table.size());
  for (const AllocatorInfo &I : Table)
    Out.push_back(I.Kind);
  return Out;
}
