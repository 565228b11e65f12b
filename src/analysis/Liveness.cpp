//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "analysis/Order.h"

#include <deque>

using namespace lsra;

Liveness::Liveness(const Function &F, const TargetDesc &TD,
                   const std::vector<unsigned> *RPO)
    : NumVRegs(F.numVRegs()) {
  (void)TD;
  unsigned NumBlocks = F.numBlocks();

  // The global vregs: read in some block before any write in that block.
  GlobalOf.assign(NumVRegs, ~0u);
  {
    std::vector<unsigned> WrittenIn(NumVRegs, ~0u);
    for (unsigned B = 0; B < NumBlocks; ++B)
      for (const Instr &I : F.block(B).instrs()) {
        forEachUsedReg(I, [&](const Operand &Op) {
          if (Op.isVReg() && WrittenIn[Op.vregId()] != B)
            GlobalOf[Op.vregId()] = 0;
        });
        forEachDefinedReg(I, [&](const Operand &Op) {
          if (Op.isVReg())
            WrittenIn[Op.vregId()] = B;
        });
      }
  }
  for (unsigned V = 0; V < NumVRegs; ++V)
    if (GlobalOf[V] != ~0u) {
      GlobalOf[V] = static_cast<unsigned>(Globals.size());
      Globals.push_back(V);
    }

  unsigned NumGlobals = static_cast<unsigned>(Globals.size());
  LiveIn.assign(NumBlocks, BitVector(NumGlobals));
  LiveOut.assign(NumBlocks, BitVector(NumGlobals));
  Iterations = solve(F, localSets(F, nullptr), nullptr, RPO);

  CrossBlock.resize(NumVRegs);
  BitVector Any(NumGlobals);
  for (unsigned B = 0; B < NumBlocks; ++B)
    Any |= LiveIn[B]; // every live-out bit is some successor's live-in bit
  Any.forEachSetBit([&](unsigned G) { CrossBlock.set(Globals[G]); });
}

Liveness::LocalSets Liveness::localSets(const Function &F,
                                        const BitVector *Only) const {
  LocalSets L;
  unsigned NumBlocks = F.numBlocks();
  L.UseBegin.reserve(NumBlocks + 1);
  L.DefBegin.reserve(NumBlocks + 1);
  std::vector<unsigned> UsedIn(Globals.size(), ~0u);
  std::vector<unsigned> WrittenIn(Globals.size(), ~0u);
  auto Index = [&](const Operand &Op) {
    if (!Op.isVReg())
      return ~0u;
    unsigned G = GlobalOf[Op.vregId()];
    return G != ~0u && (!Only || Only->test(G)) ? G : ~0u;
  };
  for (unsigned B = 0; B < NumBlocks; ++B) {
    L.UseBegin.push_back(static_cast<unsigned>(L.Uses.size()));
    L.DefBegin.push_back(static_cast<unsigned>(L.Defs.size()));
    for (const Instr &I : F.block(B).instrs()) {
      // An instruction's reads come before its writes.
      forEachUsedReg(I, [&](const Operand &Op) {
        unsigned G = Index(Op);
        if (G != ~0u && WrittenIn[G] != B && UsedIn[G] != B) {
          UsedIn[G] = B;
          L.Uses.push_back(G);
        }
      });
      forEachDefinedReg(I, [&](const Operand &Op) {
        unsigned G = Index(Op);
        if (G != ~0u && WrittenIn[G] != B) {
          WrittenIn[G] = B;
          L.Defs.push_back(G);
        }
      });
    }
  }
  L.UseBegin.push_back(static_cast<unsigned>(L.Uses.size()));
  L.DefBegin.push_back(static_cast<unsigned>(L.Defs.size()));
  return L;
}

unsigned Liveness::solve(const Function &F, const LocalSets &L,
                         const BitVector *Mask,
                         const std::vector<unsigned> *RPO) {
  unsigned NumBlocks = F.numBlocks();
  for (unsigned B = 0; B < NumBlocks; ++B)
    for (unsigned K = L.UseBegin[B]; K < L.UseBegin[B + 1]; ++K)
      LiveIn[B].set(L.Uses[K]);

  // Solve LiveOut(b) = U LiveIn(s); LiveIn(b) = Use(b) | (LiveOut - Def)
  // with a worklist seeded in post-order (the reverse of the entry's
  // reverse post-order). For a backward problem this visits every block
  // after all its successors on acyclic paths, so only blocks reached by a
  // back edge are ever re-queued — unlike whole-CFG sweeps, which recompute
  // every block until an entire pass changes nothing.
  std::vector<SuccList> Succs(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B)
    Succs[B] = F.block(B).successors();
  PredecessorLists Preds = F.predecessors();

  std::vector<unsigned> Order;
  if (!RPO) {
    Order = reversePostOrder(F);
    RPO = &Order;
  }
  assert(RPO->size() == NumBlocks && "stale reverse post-order");

  std::deque<unsigned> Worklist;
  std::vector<uint8_t> InWorklist(NumBlocks, 0);
  for (unsigned I = NumBlocks; I-- > 0;) {
    Worklist.push_back((*RPO)[I]);
    InWorklist[(*RPO)[I]] = 1;
  }

  unsigned Visits = 0;
  BitVector Through(static_cast<unsigned>(Globals.size()));
  while (!Worklist.empty()) {
    unsigned B = Worklist.front();
    Worklist.pop_front();
    InWorklist[B] = 0;
    ++Visits;

    BitVector &Out = LiveOut[B];
    for (unsigned S : Succs[B])
      Out |= LiveIn[S];
    Through = Out;
    if (Mask)
      Through &= *Mask;
    for (unsigned K = L.DefBegin[B]; K < L.DefBegin[B + 1]; ++K)
      Through.reset(L.Defs[K]);
    if (!(LiveIn[B] |= Through))
      continue;
    for (unsigned P : Preds[B])
      if (!InWorklist[P]) {
        InWorklist[P] = 1;
        Worklist.push_back(P);
      }
  }
  return Visits;
}

bool Liveness::Set::operator==(const Set &R) const {
  if (count() != R.count())
    return false;
  std::vector<unsigned> A, B;
  forEach([&](unsigned V) { A.push_back(V); });
  R.forEach([&](unsigned V) { B.push_back(V); });
  return A == B;
}

void Liveness::removeReads(const Function &F,
                           const std::vector<unsigned> &LostReads,
                           const std::vector<unsigned> *RPO) {
  BitVector Mask(static_cast<unsigned>(Globals.size()));
  for (unsigned V : LostReads)
    if (GlobalOf[V] != ~0u)
      Mask.set(GlobalOf[V]);
  if (Mask.none())
    return; // only local vregs lost reads; no boundary set holds them
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    LiveIn[B].subtract(Mask);
    LiveOut[B].subtract(Mask);
  }
  solve(F, localSets(F, &Mask), &Mask, RPO);

  BitVector Any(static_cast<unsigned>(Globals.size()));
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    Any |= LiveIn[B];
  Mask.forEachSetBit(
      [&](unsigned G) { CrossBlock.setValue(Globals[G], Any.test(G)); });
}
