//===- analysis/Loops.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Loops.h"

#include "analysis/Dominators.h"

#include <algorithm>

using namespace lsra;

LoopInfo::LoopInfo(const Function &F) : LoopInfo(F, Dominators(F)) {}

LoopInfo::LoopInfo(const Function &F, const Dominators &Dom) {
  unsigned N = F.numBlocks();
  Depth.assign(N, 0);
  auto Preds = F.predecessors();

  // Find back edges T -> H (H dominates T); flood backward from T to H to
  // collect the natural loop body. Mark[B] == Stamp means B is already in
  // the set being built, so each flood costs the size of its loop.
  std::vector<unsigned> Mark(N, 0);
  unsigned Stamp = 0;
  std::vector<unsigned> Work;
  for (unsigned T = 0; T < N; ++T) {
    if (!Dom.isReachable(T))
      continue;
    for (unsigned H : F.block(T).successors()) {
      if (!Dom.dominates(H, T))
        continue;
      Loop L;
      L.Header = H;
      ++Stamp;
      Mark[H] = Stamp;
      L.Blocks.push_back(H);
      if (Mark[T] != Stamp) {
        Mark[T] = Stamp;
        L.Blocks.push_back(T);
        Work.push_back(T);
      }
      while (!Work.empty()) {
        unsigned B = Work.back();
        Work.pop_back();
        for (unsigned P : Preds[B])
          if (Mark[P] != Stamp) {
            Mark[P] = Stamp;
            L.Blocks.push_back(P);
            Work.push_back(P);
          }
      }
      std::sort(L.Blocks.begin(), L.Blocks.end());
      Loops.push_back(std::move(L));
    }
  }

  // Depth = number of loops containing the block. Two back edges sharing a
  // header describe one loop, so each header's loops are visited together
  // and count a block once.
  std::vector<unsigned> ByHeader(Loops.size());
  for (unsigned I = 0; I < ByHeader.size(); ++I)
    ByHeader[I] = I;
  std::stable_sort(ByHeader.begin(), ByHeader.end(),
                   [&](unsigned A, unsigned B) {
                     return Loops[A].Header < Loops[B].Header;
                   });
  for (unsigned I = 0; I < ByHeader.size(); ++I) {
    if (I == 0 || Loops[ByHeader[I]].Header != Loops[ByHeader[I - 1]].Header)
      ++Stamp;
    for (unsigned B : Loops[ByHeader[I]].Blocks)
      if (Mark[B] != Stamp) {
        Mark[B] = Stamp;
        ++Depth[B];
      }
  }
}
