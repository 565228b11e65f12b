//===- ir/Block.cpp -------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Block.h"

using namespace lsra;

SuccList Block::successors() const {
  SuccList Succs;
  if (Ids.empty())
    return Succs;
  const Instr &T = Pool->get(Ids.back());
  switch (T.opcode()) {
  case Opcode::Br:
    Succs.push_back(T.op(0).labelBlock());
    break;
  case Opcode::CBr:
    Succs.push_back(T.op(1).labelBlock());
    if (T.op(2).labelBlock() != T.op(1).labelBlock())
      Succs.push_back(T.op(2).labelBlock());
    break;
  case Opcode::Ret:
    break;
  default:
    assert(false && "block does not end in a terminator");
  }
  return Succs;
}

void Block::replaceSuccessor(unsigned OldId, unsigned NewId) {
  assert(hasTerminator() && "block has no terminator");
  Instr &T = Pool->get(Ids.back());
  for (unsigned I = 0; I < 3; ++I)
    if (T.op(I).isLabel() && T.op(I).labelBlock() == OldId)
      T.op(I) = Operand::label(NewId);
}
