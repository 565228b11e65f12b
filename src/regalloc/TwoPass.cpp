//===- regalloc/TwoPass.cpp -----------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/TwoPass.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "analysis/Order.h"
#include "obs/DecisionLog.h"
#include "regalloc/Lifetime.h"
#include "regalloc/SpillSlots.h"

#include <algorithm>

using namespace lsra;

namespace {

constexpr unsigned NoReg = ~0u;

/// Per-register booking of busy position ranges: committed whole lifetimes,
/// the register's own fixed convention segments and the point lifetimes of
/// spill references. Every booking follows a failed overlap test, so nothing
/// booked overlaps anything else: the ranges sorted by start have sorted
/// ends too, an overlap query is one binary search, and at most one range
/// covers a position. Point lifetimes (one position each, never unbooked)
/// are bits in a position table.
class RegBook {
public:
  /// Book \p LT's segments for \p Owner (a vreg, or NoReg for the
  /// register's fixed segments).
  void bookLifetime(const Lifetime &LT, unsigned Owner) {
    for (const Segment &S : LT.Segs) {
      assert(!overlaps(S.Start, S.End) && "booked ranges must stay disjoint");
      Busy.insert(firstStartingAt(S.Start), Range{S.Start, S.End, Owner});
    }
  }

  void bookPoint(unsigned Pos) {
    assert(!overlaps(Pos, Pos + 1) && "booked ranges must stay disjoint");
    if (Pos >= Points.size())
      Points.resize(std::max<size_t>(Pos + 1, 2 * Points.size()), false);
    Points[Pos] = true;
  }

  bool overlaps(unsigned Start, unsigned End) const {
    // Of the ranges starting before End, the last one ends last.
    auto It = firstStartingAt(End);
    if (It != Busy.begin() && std::prev(It)->End > Start)
      return true;
    // Points are booked only after every whole lifetime, and queried one
    // position at a time, so this loop is short or empty.
    unsigned Last = std::min<size_t>(End, Points.size());
    for (unsigned P = Start; P < Last; ++P)
      if (Points[P])
        return true;
    return false;
  }

  bool overlapsLifetime(const Lifetime &LT) const {
    for (const Segment &S : LT.Segs)
      if (overlaps(S.Start, S.End))
        return true;
    return false;
  }

  /// The vreg whose booked whole lifetime covers \p Pos, or NoReg.
  unsigned ownerAt(unsigned Pos) const {
    auto It = firstStartingAt(Pos + 1);
    if (It == Busy.begin() || std::prev(It)->End <= Pos)
      return NoReg;
    return std::prev(It)->Owner;
  }

  void unbook(const Lifetime &LT) {
    for (const Segment &S : LT.Segs) {
      auto It = firstStartingAt(S.Start);
      assert(It != Busy.end() && It->Start == S.Start && It->End == S.End &&
             "unbooking a range that was never booked");
      Busy.erase(It);
    }
  }

private:
  struct Range {
    unsigned Start, End, Owner;
  };
  std::vector<Range> Busy;
  std::vector<bool> Points; // position -> booked by a point lifetime

  std::vector<Range>::const_iterator firstStartingAt(unsigned Pos) const {
    return std::lower_bound(
        Busy.begin(), Busy.end(), Pos,
        [](const Range &R, unsigned P) { return R.Start < P; });
  }
};

class TwoPassAllocator {
public:
  TwoPassAllocator(Function &F, const TargetDesc &TD, FunctionAnalyses &FA)
      : F(F), TD(TD), Num(FA.numbering()), LT(FA.lifetimes()), Slots(F) {}

  AllocStats run();

private:
  Function &F;
  const TargetDesc &TD;
  const Numbering &Num;
  const LifetimeAnalysis &LT;
  SpillSlots Slots;
  AllocStats Stats;

  /// CFG-correct lifetimes: linear-order artifact gaps are filled, since a
  /// whole-lifetime allocator has no resolution phase to patch a clobbered
  /// value flowing around a gap.
  std::vector<Lifetime> Filled;
  std::vector<unsigned> Assigned; // vreg -> register or NoReg (memory)
  std::vector<RegBook> Books;     // indexed by physical register
  /// Per spilled vreg: (reference position, register for that point).
  std::vector<std::vector<std::pair<unsigned, unsigned>>> PointRegs;

  bool tryAssignWhole(unsigned V);
  void unassign(unsigned V, std::vector<unsigned> &Requeue);
  unsigned assignPoint(RegClass RC, unsigned Pos,
                       std::vector<unsigned> &Requeue);
  void rewrite();
};

AllocStats TwoPassAllocator::run() {
  assert(F.CallsLowered && "lower calls before register allocation");
  unsigned NumV = F.numVRegs();
  Stats.RegCandidates = NumV;
  Assigned.assign(NumV, NoReg);
  Filled.resize(NumV);
  for (unsigned V = 0; V < NumV; ++V)
    Filled[V] = LT.vreg(V).withArtifactGapsFilled();
  Books.resize(NumPRegs);
  for (unsigned P = 0; P < NumPRegs; ++P)
    Books[P].bookLifetime(LT.pregFixed(P), NoReg);

  // Pass 1: walk lifetimes in start order, committing whole lifetimes.
  std::vector<unsigned> ByStart;
  for (unsigned V = 0; V < NumV; ++V)
    if (!LT.vreg(V).empty())
      ByStart.push_back(V);
  std::sort(ByStart.begin(), ByStart.end(), [&](unsigned A, unsigned B) {
    return LT.vreg(A).startPos() < LT.vreg(B).startPos();
  });
  std::vector<unsigned> Spilled;
  for (unsigned V : ByStart)
    if (!tryAssignWhole(V))
      Spilled.push_back(V);

  // Pass 1b: point lifetimes for every reference of a spilled temporary
  // ("these point lifetimes are always assigned a register", §2.2). When a
  // point cannot be placed, committed whole lifetimes are demoted to memory
  // and their references re-queued.
  std::vector<unsigned> Queue = Spilled;
  PointRegs.assign(NumV, {});
  obs::DecisionLog &DL = obs::DecisionLog::global();
  while (!Queue.empty()) {
    unsigned V = Queue.back();
    Queue.pop_back();
    ++Stats.SpilledTemps;
    if (DL.enabled())
      DL.record(F, obs::DecisionKind::SpillWhole, V,
                LT.vreg(V).startPos(), obs::NoValue,
                "whole lifetime fits no register; point lifetimes only");
    const Lifetime &L = LT.vreg(V);
    for (const Reference &R : L.Refs) {
      // A point covers its one position: a use point the read, a def point
      // the write. A use and def of the same temp at one instruction share
      // the instruction's [usePos, defPos+1) range via separate points.
      std::vector<unsigned> Requeue;
      unsigned Reg = assignPoint(F.vregClass(V), R.Pos, Requeue);
      PointRegs[V].push_back({R.Pos, Reg});
      for (unsigned RV : Requeue)
        Queue.push_back(RV);
    }
  }

  rewrite();
  return Stats;
}

bool TwoPassAllocator::tryAssignWhole(unsigned V) {
  const Lifetime &L = Filled[V];
  for (unsigned R : TD.allocOrder(F.vregClass(V))) {
    if (Books[R].overlapsLifetime(L))
      continue;
    Books[R].bookLifetime(L, V);
    Assigned[V] = R;
    return true;
  }
  return false;
}

void TwoPassAllocator::unassign(unsigned V, std::vector<unsigned> &Requeue) {
  unsigned R = Assigned[V];
  assert(R != NoReg && "unassigning an unassigned temp");
  Books[R].unbook(Filled[V]);
  Assigned[V] = NoReg;
  Requeue.push_back(V);
}

unsigned TwoPassAllocator::assignPoint(RegClass RC, unsigned Pos,
                                       std::vector<unsigned> &Requeue) {
  for (unsigned R : TD.allocOrder(RC))
    if (!Books[R].overlaps(Pos, Pos + 1)) {
      Books[R].bookPoint(Pos);
      return R;
    }
  // Steal: demote the committed whole lifetime covering this point in the
  // first register that has one. It is the only booking there, so the
  // point then fits.
  for (unsigned R : TD.allocOrder(RC)) {
    unsigned Victim = Books[R].ownerAt(Pos);
    if (Victim == NoReg)
      continue; // blocked by a fixed segment or another point
    unassign(Victim, Requeue);
    Books[R].bookPoint(Pos);
    return R;
  }
  assert(false && "two-pass binpacking: no register for a point lifetime");
  return 0;
}

void TwoPassAllocator::rewrite() {
  // Point registers recorded per (vreg, position); consume in order.
  std::vector<unsigned> Cursor(F.numVRegs(), 0);
  auto PointRegAt = [&](unsigned V, unsigned Pos) {
    auto &Points = PointRegs[V];
    unsigned &C = Cursor[V];
    while (C < Points.size() && Points[C].first < Pos)
      ++C;
    assert(C < Points.size() && Points[C].first == Pos &&
           "missing point register");
    return Points[C].second;
  };

  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    Block &Blk = F.block(B);
    std::vector<uint32_t> Out;
    Out.reserve(Blk.size());
    bool Inserted = false;
    for (unsigned Idx = 0; Idx < Blk.size(); ++Idx) {
      Instr I = Blk.instrs()[Idx];
      unsigned G = Num.instrIndex(B, Idx);
      unsigned UsePos = Numbering::usePos(G);
      unsigned DefPos = Numbering::defPos(G);
      const OpcodeInfo &Info = I.info();
      unsigned LoadedV = ~0u;
      for (unsigned S = Info.NumDefs;
           S < unsigned(Info.NumDefs) + Info.NumUses; ++S) {
        Operand &Op = I.op(S);
        if (!Op.isVReg())
          continue;
        unsigned V = Op.vregId();
        unsigned R = Assigned[V];
        if (R == NoReg) {
          R = PointRegAt(V, UsePos);
          if (V != LoadedV) {
            Out.push_back(
                Blk.makeInstr(Slots.makeLoad(V, R, SpillKind::EvictLoad)));
            ++Stats.EvictLoads;
            Inserted = true;
            LoadedV = V;
          }
        }
        Op = Operand::preg(R);
      }
      uint32_t StoreId = ~0u;
      if (Info.NumDefs == 1 && I.op(0).isVReg()) {
        unsigned V = I.op(0).vregId();
        unsigned R = Assigned[V];
        if (R == NoReg) {
          R = PointRegAt(V, DefPos);
          StoreId = Blk.makeInstr(Slots.makeStore(V, R, SpillKind::EvictStore));
          ++Stats.EvictStores;
          Inserted = true;
        }
        I.op(0) = Operand::preg(R);
      }
      Blk.instrs()[Idx] = I; // rewritten in place: id preserved
      Out.push_back(Blk.instrId(Idx));
      if (StoreId != ~0u)
        Out.push_back(StoreId);
    }
    if (Inserted)
      Blk.setInstrIds(Out);
  }
}

} // namespace

AllocStats lsra::runTwoPassBinpack(Function &F, const TargetDesc &TD,
                                   const AllocOptions &Opts) {
  FunctionAnalyses FA(F, TD);
  return runTwoPassBinpack(F, TD, Opts, FA);
}

AllocStats lsra::runTwoPassBinpack(Function &F, const TargetDesc &TD,
                                   const AllocOptions &Opts,
                                   FunctionAnalyses &FA) {
  (void)Opts;
  assert(&FA.function() == &F && "analyses are for a different function");
  return TwoPassAllocator(F, TD, FA).run();
}
