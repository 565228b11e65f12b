//===- ir/Function.cpp ----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"

using namespace lsra;

void PredecessorLists::recompute(const Function &F) {
  // Gather the edges in source order (reading each terminator once) and
  // count each block's incoming ones, then place the sources.
  Offsets.assign(F.numBlocks() + 1, 0);
  Edges.clear();
  Edges.reserve(2 * F.numBlocks()); // a terminator has at most two
  for (const Block &B : F.blocks())
    for (unsigned S : B.successors()) {
      ++Offsets[S + 1];
      Edges.push_back({S, B.id()});
    }
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    Offsets[B + 1] += Offsets[B];
  Ids.resize(Offsets.back());
  for (auto [S, From] : Edges)
    Ids[Offsets[S]++] = From;
  // Each offset now holds its block's end, the next block's start.
  for (unsigned B = F.numBlocks(); B > 0; --B)
    Offsets[B] = Offsets[B - 1];
  Offsets[0] = 0;
}

unsigned Function::numInstrs() const {
  unsigned N = 0;
  for (const Block &B : Blocks)
    N += B.size();
  return N;
}

void Function::releaseBody() {
  // Block id vectors point into the arena; drop the blocks before the
  // arena backing them.
  Blocks.clear();
  Pool.clear();
  Arena.reset();
  VRegClasses.clear();
  VRegClasses.shrink_to_fit();
  SlotClasses.clear();
  SlotClasses.shrink_to_fit();
  CallsLowered = false;
}
