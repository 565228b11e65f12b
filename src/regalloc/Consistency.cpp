//===- regalloc/Consistency.cpp -------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Consistency.h"

#include "analysis/Order.h"

using namespace lsra;

unsigned ConsistencyInfo::solve(const Function &F,
                                const std::vector<unsigned> *RPO) {
  unsigned NumBlocks = F.numBlocks();
  Relied.clear();
  for (unsigned B = 0; B < NumBlocks; ++B) {
    Relied.insert(Relied.end(), UsedConsistency[B].begin(),
                  UsedConsistency[B].end());
    Relied.insert(Relied.end(), UsedAtExit[B].begin(), UsedAtExit[B].end());
  }
  std::sort(Relied.begin(), Relied.end());
  Relied.erase(std::unique(Relied.begin(), Relied.end()), Relied.end());
  unsigned NumRelied = static_cast<unsigned>(Relied.size());
  auto Index = [&](unsigned V) {
    auto It = std::lower_bound(Relied.begin(), Relied.end(), V);
    return It != Relied.end() && *It == V
               ? static_cast<unsigned>(It - Relied.begin())
               : ~0u;
  };

  // USED_C_in(b) starts as USED_CONSISTENCY(b). Writes of temps nobody
  // relies on are dropped; the rest become bit indices.
  UsedCIn.assign(NumBlocks, BitVector(NumRelied));
  std::vector<std::vector<unsigned>> Kill(NumBlocks), Exit(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    for (unsigned V : UsedConsistency[B])
      UsedCIn[B].set(Index(V));
    for (unsigned V : UsedAtExit[B])
      Exit[B].push_back(Index(V));
    for (unsigned V : WroteTR[B])
      if (unsigned I = Index(V); I != ~0u)
        Kill[B].push_back(I);
  }

  std::vector<unsigned> Order;
  if (!RPO) {
    Order = reversePostOrder(F);
    RPO = &Order;
  }
  assert(RPO->size() == NumBlocks && "stale reverse post-order");
  PredecessorLists Preds = F.predecessors();
  std::vector<SuccList> Succs(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B)
    Succs[B] = F.block(B).successors();

  // USED_C_in(b) |= (USED_C_out(b) - WROTE_TR(b)), with USED_C_out(b) the
  // union of UsedAtExit(b) and the successors' USED_C_in. Post-order
  // visits a block after its successors except along back edges, whose
  // sources wait for the next sweep.
  std::vector<uint8_t> Queued(NumBlocks, 1);
  BitVector Out(NumRelied);
  unsigned Sweeps = 0;
  for (bool Visited = true; Visited;) {
    Visited = false;
    for (unsigned I = NumBlocks; I-- > 0;) {
      unsigned B = (*RPO)[I];
      if (!Queued[B])
        continue;
      Queued[B] = 0;
      Visited = true;
      Out.clear();
      for (unsigned K : Exit[B])
        Out.set(K);
      for (unsigned S : Succs[B])
        Out |= UsedCIn[S];
      for (unsigned K : Kill[B])
        Out.reset(K);
      if (UsedCIn[B] |= Out)
        for (unsigned P : Preds[B])
          Queued[P] = 1;
    }
    Sweeps += Visited;
  }
  return Sweeps;
}
