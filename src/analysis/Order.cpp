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
  std::vector<unsigned> Order; // post-order, reversed in place below
  Order.reserve(F.numBlocks());
  std::vector<uint8_t> State(F.numBlocks(), 0); // 0=new, 1=open, 2=done
  // Iterative DFS. A frame holds its block's successor list, which is
  // inline (no allocation), so nothing is copied per block up front.
  struct Frame {
    unsigned B;
    unsigned NextIdx;
    SuccList Succs;
  };
  std::vector<Frame> Stack;
  Stack.push_back({0, 0, F.block(0).successors()});
  State[0] = 1;
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.NextIdx < Top.Succs.size()) {
      unsigned S = Top.Succs[Top.NextIdx++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0, F.block(S).successors()});
      }
      continue;
    }
    State[Top.B] = 2;
    Order.push_back(Top.B);
    Stack.pop_back();
  }
  std::reverse(Order.begin(), Order.end());
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    if (State[B] != 2)
      Order.push_back(B); // unreachable; keep analyses total
  return Order;
}

Block &lsra::splitEdge(Function &F, unsigned Pred, unsigned Succ) {
  Block &NewB = F.addBlock(F.block(Pred).name() + "." + F.block(Succ).name());
  NewB.append(Instr(Opcode::Br, Operand::label(Succ)));
  F.block(Pred).replaceSuccessor(Succ, NewB.id());
  return NewB;
}
