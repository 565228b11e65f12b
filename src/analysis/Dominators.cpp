//===- analysis/Dominators.cpp --------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "analysis/Order.h"

using namespace lsra;

Dominators::Dominators(const Function &F)
    : Dominators(F, reversePostOrder(F)) {}

Dominators::Dominators(const Function &F, const std::vector<unsigned> &RPO) {
  unsigned N = F.numBlocks();
  assert(RPO.size() == N && "stale reverse post-order");
  IDom.assign(N, ~0u);
  RPONumber.assign(N, ~0u);

  for (unsigned I = 0; I < RPO.size(); ++I)
    RPONumber[RPO[I]] = I;

  auto Preds = F.predecessors();
  IDom[0] = 0;

  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RPONumber[A] > RPONumber[B])
        A = IDom[A];
      while (RPONumber[B] > RPONumber[A])
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : RPO) {
      if (B == 0)
        continue;
      unsigned NewIDom = ~0u;
      for (unsigned P : Preds[B]) {
        if (IDom[P] == ~0u)
          continue; // unreachable or not yet processed
        NewIDom = NewIDom == ~0u ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != ~0u && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }

  // Number the dominator tree in preorder. Children are listed in RPO,
  // and an explicit stack keeps deep trees off the call stack.
  std::vector<unsigned> ChildBegin(N + 1, 0), Children(N);
  for (unsigned B : RPO)
    if (B != 0 && IDom[B] != ~0u)
      ++ChildBegin[IDom[B] + 1];
  for (unsigned B = 0; B < N; ++B)
    ChildBegin[B + 1] += ChildBegin[B];
  std::vector<unsigned> Fill(ChildBegin.begin(), ChildBegin.end() - 1);
  for (unsigned B : RPO)
    if (B != 0 && IDom[B] != ~0u)
      Children[Fill[IDom[B]]++] = B;
  Pre.assign(N, 0);
  Size.assign(N, 1);
  unsigned Next = 0;
  std::vector<std::pair<unsigned, unsigned>> Stack = {{0u, ChildBegin[0]}};
  Pre[0] = Next++;
  while (!Stack.empty()) {
    auto &[B, C] = Stack.back();
    if (C == ChildBegin[B + 1]) {
      unsigned Done = B;
      Stack.pop_back();
      if (!Stack.empty())
        Size[Stack.back().first] += Size[Done];
      continue;
    }
    unsigned Child = Children[C++];
    Pre[Child] = Next++;
    Stack.push_back({Child, ChildBegin[Child]});
  }
}
