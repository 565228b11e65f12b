//===- passes/DCE.cpp -----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Removes what sweeping with fresh liveness until nothing changes would,
// with one liveness solve. One backward sweep per block against the
// input's liveness removes the defs that are dead already. After that a
// def can only die when its vreg loses a read, so a worklist of those
// vregs re-tests their removable defs by a forward search for a read that
// stops at other writes. Removing a dead def never grows any liveness, so
// every order of removals reaches the same program (DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "passes/DCE.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Liveness.h"

#include <algorithm>
#include <memory>

using namespace lsra;

namespace {

/// True if \p I can be deleted when its definition is dead: it defines a
/// virtual register and has no other observable effect. (Loads are pure in
/// this IR; stores, calls, emits, and terminators are not removable.)
bool isRemovableWhenDead(const Instr &I) {
  if (I.info().NumDefs != 1 || !I.op(0).isVReg())
    return false;
  switch (I.opcode()) {
  case Opcode::CRes:
  case Opcode::FCRes:
    // The call happens regardless; an unused result move is dead.
    return true;
  default:
    return !I.isCall() && !I.isTerminator();
  }
}

class DeadCodeEliminator {
public:
  DeadCodeEliminator(Function &F, std::unique_ptr<Liveness> LV)
      : F(F), LV(std::move(LV)) {}

  unsigned run();

  /// The liveness of the function as it is now: the input's solve, with
  /// the vregs that lost a read solved again.
  std::unique_ptr<Liveness> takeLiveness(const std::vector<unsigned> *RPO) {
    LV->removeReads(F, LostRead, RPO);
    return std::move(LV);
  }

private:
  Function &F;
  std::unique_ptr<Liveness> LV;
  /// Every vreg a removal deleted a read of (repeats allowed).
  std::vector<unsigned> LostRead;
  /// Block B's instructions hold the positions [Start[B], Start[B+1]).
  std::vector<uint32_t> Start;
  std::vector<uint8_t> Removed; ///< by position
  unsigned NumRemoved = 0;
  /// VRegs that lost a read since their defs were last tested.
  std::vector<unsigned> Work;
  std::vector<uint8_t> InWork;

  /// A read or write of a vreg by the instruction at Pos. An instruction
  /// that reads and writes one vreg lists the read first.
  struct Occ {
    uint32_t Pos;
    uint32_t Block;
    bool IsUse;
  };
  /// Each vreg's occurrences among the instructions the sweep kept, in
  /// position order: Occs[OccBegin[V], OccBegin[V+1]).
  std::vector<Occ> Occs;
  std::vector<uint32_t> OccBegin;
  std::vector<unsigned> NumUses; ///< reads left, per vreg
  std::vector<SuccList> Succs;
  std::vector<unsigned> Visited, Queue;
  unsigned VisitEpoch = 0;

  void remove(uint32_t Pos, const Instr &I);
  void sweep();
  void indexOccurrences();
  const Occ *firstOcc(unsigned V, unsigned B, uint32_t From) const;
  bool liveAfter(unsigned V, const Occ &Def);
};

void DeadCodeEliminator::remove(uint32_t Pos, const Instr &I) {
  Removed[Pos] = 1;
  ++NumRemoved;
  forEachUsedReg(I, [&](const Operand &Op) {
    if (!Op.isVReg())
      return;
    unsigned V = Op.vregId();
    if (!NumUses.empty())
      --NumUses[V];
    LostRead.push_back(V);
    if (!InWork[V]) {
      InWork[V] = 1;
      Work.push_back(V);
    }
  });
}

void DeadCodeEliminator::sweep() {
  // Seen[V] == B + 1 once block B's backward walk has passed an occurrence
  // of V; Live[V] then holds V's liveness at the current point. Before
  // that, it is V's live-out bit.
  std::vector<unsigned> Seen(F.numVRegs(), 0);
  std::vector<uint8_t> Live(F.numVRegs(), 0);
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    auto Instrs = F.block(B).instrs();
    Liveness::Set Out = LV->liveOut(B);
    auto Note = [&](unsigned V, bool L) {
      Seen[V] = B + 1;
      Live[V] = L;
    };
    for (unsigned Idx = Instrs.size(); Idx-- > 0;) {
      const Instr &I = Instrs[Idx];
      if (isRemovableWhenDead(I)) {
        unsigned V = I.op(0).vregId();
        if (Seen[V] == B + 1 ? !Live[V] : !Out.test(V)) {
          remove(Start[B] + Idx, I);
          continue;
        }
      }
      forEachDefinedReg(I, [&](const Operand &Op) {
        if (Op.isVReg())
          Note(Op.vregId(), false);
      });
      forEachUsedReg(I, [&](const Operand &Op) {
        if (Op.isVReg())
          Note(Op.vregId(), true);
      });
    }
  }
}

void DeadCodeEliminator::indexOccurrences() {
  unsigned NumV = F.numVRegs();
  std::vector<std::pair<unsigned, Occ>> Flat;
  OccBegin.assign(NumV + 1, 0);
  NumUses.assign(NumV, 0);
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    auto Instrs = F.block(B).instrs();
    for (unsigned Idx = 0; Idx < Instrs.size(); ++Idx) {
      uint32_t Pos = Start[B] + Idx;
      if (Removed[Pos])
        continue;
      auto Note = [&](const Operand &Op, bool IsUse) {
        if (!Op.isVReg())
          return;
        Flat.push_back({Op.vregId(), {Pos, B, IsUse}});
        ++OccBegin[Op.vregId() + 1];
        NumUses[Op.vregId()] += IsUse;
      };
      forEachUsedReg(Instrs[Idx], [&](const Operand &Op) { Note(Op, true); });
      forEachDefinedReg(Instrs[Idx],
                        [&](const Operand &Op) { Note(Op, false); });
    }
  }
  for (unsigned V = 0; V < NumV; ++V)
    OccBegin[V + 1] += OccBegin[V];
  // A stable counting sort by vreg keeps each vreg's list in position
  // order.
  Occs.resize(Flat.size());
  std::vector<uint32_t> Fill(OccBegin.begin(), OccBegin.end() - 1);
  for (const auto &[V, O] : Flat)
    Occs[Fill[V]++] = O;

  Succs.resize(F.numBlocks());
  for (unsigned B = 0; B < F.numBlocks(); ++B)
    Succs[B] = F.block(B).successors();
  Visited.assign(F.numBlocks(), 0);
}

/// The first remaining occurrence of \p V in block \p B at a position
/// >= \p From, or null.
const DeadCodeEliminator::Occ *
DeadCodeEliminator::firstOcc(unsigned V, unsigned B, uint32_t From) const {
  auto End = Occs.begin() + OccBegin[V + 1];
  auto It = std::lower_bound(
      Occs.begin() + OccBegin[V], End, From,
      [](const Occ &O, uint32_t P) { return O.Pos < P; });
  for (; It != End && It->Pos < Start[B + 1]; ++It)
    if (!Removed[It->Pos])
      return &*It;
  return nullptr;
}

/// True if some path from just after \p Def reaches a read of \p V before
/// any other write of it: the rest of Def's block, then its successors
/// breadth-first.
bool DeadCodeEliminator::liveAfter(unsigned V, const Occ &Def) {
  if (const Occ *O = firstOcc(V, Def.Block, Def.Pos + 1))
    return O->IsUse;
  ++VisitEpoch;
  Queue.clear();
  auto Enqueue = [&](unsigned B) {
    for (unsigned S : Succs[B])
      if (Visited[S] != VisitEpoch) {
        Visited[S] = VisitEpoch;
        Queue.push_back(S);
      }
  };
  Enqueue(Def.Block);
  for (size_t Q = 0; Q < Queue.size(); ++Q) {
    unsigned B = Queue[Q];
    const Occ *O = firstOcc(V, B, Start[B]);
    if (O && O->IsUse)
      return true;
    if (!O)
      Enqueue(B);
  }
  return false;
}

unsigned DeadCodeEliminator::run() {
  unsigned NumBlocks = F.numBlocks();
  Start.assign(NumBlocks + 1, 0);
  for (unsigned B = 0; B < NumBlocks; ++B)
    Start[B + 1] = Start[B] + F.block(B).size();
  Removed.assign(Start[NumBlocks], 0);
  InWork.assign(F.numVRegs(), 0);

  sweep();
  if (!Work.empty())
    indexOccurrences();
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    InWork[V] = 0;
    for (uint32_t J = OccBegin[V]; J < OccBegin[V + 1]; ++J) {
      Occ D = Occs[J];
      if (D.IsUse || Removed[D.Pos])
        continue;
      const Instr &I = F.block(D.Block).instrs()[D.Pos - Start[D.Block]];
      if (isRemovableWhenDead(I) && (NumUses[V] == 0 || !liveAfter(V, D)))
        remove(D.Pos, I);
    }
  }

  if (NumRemoved == 0)
    return 0;
  std::vector<uint32_t> Kept;
  for (unsigned B = 0; B < NumBlocks; ++B) {
    Block &Blk = F.block(B);
    Kept.clear();
    for (unsigned Idx = 0; Idx < Blk.size(); ++Idx)
      if (!Removed[Start[B] + Idx])
        Kept.push_back(Blk.instrId(Idx));
    if (Kept.size() != Blk.size())
      Blk.setInstrIds(Kept);
  }
  return NumRemoved;
}

} // namespace

unsigned lsra::eliminateDeadCode(Function &F, const TargetDesc &TD) {
  return DeadCodeEliminator(F, std::make_unique<Liveness>(F, TD)).run();
}

unsigned lsra::eliminateDeadCode(Function &F, const TargetDesc &TD,
                                 FunctionAnalyses &FA) {
  assert(&FA.function() == &F && "analyses are for a different function");
  DeadCodeEliminator DCE(F, std::make_unique<Liveness>(F, TD, &FA.rpo()));
  unsigned Removed = DCE.run();
  FA.adoptLiveness(DCE.takeLiveness(&FA.rpo()));
  return Removed;
}

unsigned lsra::eliminateDeadCode(Module &M, const TargetDesc &TD) {
  unsigned Removed = 0;
  for (auto &F : M.functions())
    Removed += eliminateDeadCode(*F, TD);
  return Removed;
}
