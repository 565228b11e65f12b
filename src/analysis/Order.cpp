//===- analysis/Order.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Order.h"

#include <algorithm>

using namespace lsra;

Numbering::Numbering(const Function &F) {
  BlockFirstIdx.resize(F.numBlocks());
  BlockSize.resize(F.numBlocks());
  unsigned Idx = 0;
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    BlockFirstIdx[B] = Idx;
    BlockSize[B] = F.block(B).size();
    Idx += BlockSize[B];
  }
  NumInstrs = Idx;
}

unsigned Numbering::blockOfIndex(unsigned Idx) const {
  assert(Idx < NumInstrs && "linear index out of range");
  auto It = std::upper_bound(BlockFirstIdx.begin(), BlockFirstIdx.end(), Idx);
  return static_cast<unsigned>(It - BlockFirstIdx.begin()) - 1;
}

std::vector<unsigned> lsra::reversePostOrder(const Function &F) {
  std::vector<unsigned> PostOrder;
  std::vector<uint8_t> State(F.numBlocks(), 0); // 0=new, 1=open, 2=done
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.push_back({0, 0});
  State[0] = 1;
  std::vector<SuccList> Succs(F.numBlocks());
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    Succs[B] = F.block(B).successors();
  while (!Stack.empty()) {
    auto &[B, NextIdx] = Stack.back();
    if (NextIdx < Succs[B].size()) {
      unsigned S = Succs[B][NextIdx++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    State[B] = 2;
    PostOrder.push_back(B);
    Stack.pop_back();
  }
  std::vector<unsigned> RPO(PostOrder.rbegin(), PostOrder.rend());
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    if (State[B] != 2)
      RPO.push_back(B); // unreachable; keep analyses total
  return RPO;
}

Block &lsra::splitEdge(Function &F, unsigned Pred, unsigned Succ) {
  Block &NewB = F.addBlock(F.block(Pred).name() + "." + F.block(Succ).name());
  NewB.append(Instr(Opcode::Br, Operand::label(Succ)));
  F.block(Pred).replaceSuccessor(Succ, NewB.id());
  return NewB;
}
