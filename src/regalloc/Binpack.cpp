//===- regalloc/Binpack.cpp - Second-chance binpacking --------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Implementation of §2 of the paper. One forward scan over the static
// linear order simultaneously allocates registers and rewrites operands:
//
//  * a temporary gets a register on first encounter, preferring the free
//    register with the smallest lifetime hole that still contains the
//    temporary's whole remaining lifetime, falling back to the largest
//    insufficient hole (§2.2, §2.5);
//  * when no register is free, the occupant with the lowest priority
//    (largest loop-depth-weighted distance to its next reference) is
//    evicted (§2.3);
//  * an eviction splits the victim's lifetime: earlier rewrites stand, and
//    the victim optimistically gets a new register at its next reference —
//    the "second chance". Reloaded values stay registered until evicted;
//    redefined spilled values postpone their store until eviction (§2.3);
//  * spill stores are suppressed when the register and the memory home are
//    known consistent, tracked by the ARE_CONSISTENT working vector with
//    the USED_CONSISTENCY/WROTE_TR sets recorded for the §2.4 dataflow;
//  * registers needed by usage conventions (calls, argument registers)
//    carry fixed lifetimes; when a register's hole expires its tenant is
//    evicted, with the "early second chance" move optimisation (§2.5);
//  * a move whose destination fits in the hole that opens in the source's
//    register right after the move is coalesced onto that register (§2.5);
//  * finally, resolution reconciles the linear assumptions with the CFG
//    (Resolver.cpp) after solving the consistency dataflow (§2.4/§2.6).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Binpack.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "analysis/Order.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Trace.h"
#include "regalloc/Consistency.h"
#include "regalloc/Lifetime.h"
#include "regalloc/ParallelCopy.h"
#include "regalloc/Resolver.h"
#include "regalloc/SpillSlots.h"

#include <algorithm>
#include <iterator>
#include <memory>

using namespace lsra;

namespace {

constexpr unsigned NoTemp = ~0u;
constexpr unsigned NoReg = ~0u;

double depthWeight(unsigned Depth) {
  static const double Pow10[7] = {1, 10, 100, 1000, 1e4, 1e5, 1e6};
  return Pow10[Depth > 6 ? 6 : Depth];
}

class BinpackScanner {
public:
  BinpackScanner(Function &F, const TargetDesc &TD, const AllocOptions &Opts,
                 FunctionAnalyses &FA)
      : F(F), TD(TD), Opts(Opts), Num(FA.numbering()), LV(FA.liveness()),
        LI(FA.loops()), LT(FA.lifetimes()), RPO(FA.rpo()), Slots(F) {}

  AllocStats run();

private:
  Function &F;
  const TargetDesc &TD;
  AllocOptions Opts;
  const Numbering &Num;
  const Liveness &LV;
  const LoopInfo &LI;
  const LifetimeAnalysis &LT;
  const std::vector<unsigned> &RPO;
  SpillSlots Slots;
  AllocStats Stats;
  obs::DecisionLog &DL = obs::DecisionLog::global();
  unsigned Evictions = 0; ///< evictVictim + evictForConvention decisions

  // Scan state.
  std::array<unsigned, NumPRegs> Occ{};    // register -> occupant temp
  std::vector<LocCode> Loc;                // temp -> current location
  // Last register each temp occupied: used only as a tie-break so a
  // reloaded temp returns to its previous register when the choice is
  // otherwise equal. This keeps block-boundary states stable across loop
  // iterations (no spurious resolution moves on back edges) and makes the
  // paper's claim that second chance subsumes GEM's "history preferencing"
  // (§4) hold in this implementation.
  std::vector<unsigned> LastReg;
  std::vector<uint8_t> Consistent;         // working ARE_CONSISTENT (all temps)
  std::vector<unsigned> DeterminedStamp;   // CurBlock+1 when At set locally
  /// Conservative mode only: every temp made consistent since the current
  /// block's top (repeats allowed), so the top can clear them and the
  /// bottom can list them without a sweep over all temps.
  std::vector<unsigned> MadeConsistent;
  BitVector EverSpilled;

  // Monotone cursors that keep every lifetime query O(1) amortised, which
  // is what makes the scan linear.
  std::vector<unsigned> SegCur, RefCur;
  std::array<unsigned, NumPRegs> FixCur{};

  BoundaryLocs RegTop, RegBottom;
  /// Conservative mode only: the cross-block temps consistent at each
  /// block's bottom, sorted; a block's top starts from the intersection
  /// over its predecessors (§2.6).
  std::vector<std::vector<unsigned>> ExitConsistent;
  std::unique_ptr<ConsistencyInfo> CI;
  PredecessorLists Preds;

  bool conservative() const {
    return Opts.Consistency == AllocOptions::ConsistencyMode::Conservative;
  }

  unsigned CurBlock = 0;
  std::vector<Instr> Prefix; // code to insert before the current instruction

  // --- Lifetime queries (cursor-based) -----------------------------------

  bool tempLiveAt(unsigned V, unsigned Pos) {
    const auto &Segs = LT.vreg(V).Segs;
    unsigned &I = SegCur[V];
    while (I < Segs.size() && Segs[I].End <= Pos)
      ++I;
    return I < Segs.size() && Segs[I].Start <= Pos;
  }

  /// Where V's current hole ends (start of its next segment), InfPos when V
  /// is dead for good. Precondition: V not live at Pos.
  unsigned tempHoleEnd(unsigned V, unsigned Pos) {
    const auto &Segs = LT.vreg(V).Segs;
    unsigned &I = SegCur[V];
    while (I < Segs.size() && Segs[I].End <= Pos)
      ++I;
    if (I >= Segs.size())
      return InfPos;
    return Segs[I].Start <= Pos ? Pos : Segs[I].Start;
  }

  /// Is V's current gap a true hole (value dead) rather than a linear-order
  /// artifact (value flowing around the gap on a CFG edge)? Precondition:
  /// V not live at Pos.
  bool holeIsReal(unsigned V, unsigned Pos) {
    const auto &Segs = LT.vreg(V).Segs;
    unsigned &I = SegCur[V];
    while (I < Segs.size() && Segs[I].End <= Pos)
      ++I;
    if (I >= Segs.size())
      return true; // dead for good
    return !Segs[I].LiveInStart;
  }

  const Reference *nextRef(unsigned V, unsigned Pos) {
    const auto &Refs = LT.vreg(V).Refs;
    unsigned &I = RefCur[V];
    while (I < Refs.size() && Refs[I].Pos < Pos)
      ++I;
    return I < Refs.size() ? &Refs[I] : nullptr;
  }

  /// Where register P's current convention hole ends (the next fixed
  /// occurrence); Pos itself when P is fixed-live right now.
  unsigned fixedHoleEnd(unsigned P, unsigned Pos) {
    const auto &Segs = LT.pregFixed(P).Segs;
    unsigned &I = FixCur[P];
    while (I < Segs.size() && Segs[I].End <= Pos)
      ++I;
    if (I >= Segs.size())
      return InfPos;
    return Segs[I].Start <= Pos ? Pos : Segs[I].Start;
  }

  // --- Consistency bookkeeping --------------------------------------------

  void markDetermined(unsigned V) {
    if (DeterminedStamp[V] == CurBlock + 1)
      return;
    DeterminedStamp[V] = CurBlock + 1;
    if (LV.isCrossBlock(V))
      CI->WroteTR[CurBlock].push_back(V);
  }

  /// A store or a load just made V's register and memory home agree.
  void setConsistent(unsigned V) {
    if (conservative() && !Consistent[V])
      MadeConsistent.push_back(V);
    Consistent[V] = 1;
    markDetermined(V);
  }

  /// A spill store was inhibited because ARE_CONSISTENT said so; if the
  /// assumption is not local to this block, record the GEN bit (§2.4).
  void recordConsistencyUse(unsigned V) {
    if (DeterminedStamp[V] == CurBlock + 1)
      return;
    if (LV.isCrossBlock(V))
      CI->UsedConsistency[CurBlock].push_back(V);
  }

  // --- Core mechanics ------------------------------------------------------

  Instr makeMove(unsigned DstReg, unsigned SrcReg, SpillKind Kind) {
    Instr I(pregClass(DstReg) == RegClass::Float ? Opcode::FMov : Opcode::Mov,
            Operand::preg(DstReg), Operand::preg(SrcReg));
    I.Spill = Kind;
    return I;
  }

  /// Find a *free* register of class RC whose hole ends at or after
  /// \p NeedEnd and survives past \p DefPos. Returns NoReg if none.
  unsigned findFreeRegWithHole(RegClass RC, unsigned NeedEnd, unsigned Pos,
                               unsigned DefPos, unsigned Exclude) {
    unsigned Best = NoReg, BestEnd = InfPos;
    for (unsigned R : TD.allocOrder(RC)) {
      if (R == Exclude || Occ[R] != NoTemp)
        continue;
      unsigned FH = fixedHoleEnd(R, Pos);
      if (FH <= DefPos || FH < NeedEnd)
        continue;
      if (Best == NoReg || FH < BestEnd) {
        Best = R;
        BestEnd = FH;
      }
    }
    return Best;
  }

  /// Evict T from R because a usage convention needs the register (§2.5).
  void evictForConvention(unsigned T, unsigned R, unsigned UsePos,
                          unsigned DefPos) {
    ++Evictions;
    Occ[R] = NoTemp;
    if (!tempLiveAt(T, DefPos) && holeIsReal(T, DefPos)) {
      // Evicted during one of its true lifetime holes (next reference is a
      // definition) or at its very last use: no value needs saving. A
      // linear-order artifact gap falls through to the store logic — the
      // value still flows to a successor.
      Loc[T] = LocNowhere;
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::EvictDrop, T, UsePos, R,
                  "convention claims register; value dead in hole");
      return;
    }
    bool StoreNeeded = !Consistent[T];
    if (StoreNeeded && Opts.EarlySecondChance) {
      // Early second chance: a move now beats a store now + load later,
      // provided an empty register with a big-enough hole exists.
      unsigned RS = findFreeRegWithHole(F.vregClass(T), LT.vreg(T).endPos(),
                                        UsePos, DefPos, R);
      if (RS != NoReg) {
        Prefix.push_back(makeMove(RS, R, SpillKind::EvictMove));
        ++Stats.EvictMoves;
        ++Stats.LifetimeSplits;
        Occ[RS] = T;
        Loc[T] = locReg(RS);
        LastReg[T] = RS;
        if (DL.enabled())
          DL.record(F, obs::DecisionKind::EvictMove, T, UsePos, RS,
                    "early second chance: move beats store+load");
        return;
      }
    }
    if (StoreNeeded) {
      Prefix.push_back(Slots.makeStore(T, R, SpillKind::EvictStore));
      ++Stats.EvictStores;
      setConsistent(T);
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::EvictConvention, T, UsePos, R,
                  "convention claims register; store to memory home");
    } else {
      recordConsistencyUse(T);
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::EvictConvention, T, UsePos, R,
                  "convention claims register; store suppressed (consistent)");
    }
    Loc[T] = LocMem;
    EverSpilled.set(T);
  }

  /// Evict the priority-chosen victim T from R to make room (§2.3).
  void evictVictim(unsigned T, unsigned R, unsigned Pos) {
    ++Evictions;
    Occ[R] = NoTemp;
    if (!Consistent[T]) {
      Prefix.push_back(Slots.makeStore(T, R, SpillKind::EvictStore));
      ++Stats.EvictStores;
      setConsistent(T);
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::EvictStore, T, Pos, R,
                  "lowest priority occupant; store to memory home");
    } else {
      recordConsistencyUse(T);
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::EvictStore, T, Pos, R,
                  "lowest priority occupant; store suppressed (consistent)");
    }
    Loc[T] = LocMem;
    EverSpilled.set(T);
  }

  /// Pick a register for V at \p Pos. \p DefPos is the def point of the
  /// current instruction: registers that a convention claims at or before
  /// it, or whose hole-resident returns by it, are unavailable. When
  /// \p ForUse is set, occupants referenced by the current instruction are
  /// not eviction candidates (their register is being read right now).
  unsigned allocateReg(RegClass RC, unsigned V, unsigned Pos, unsigned DefPos,
                       bool ForUse) {
    unsigned VEnd = LT.vreg(V).endPos();
    unsigned Last = LastReg[V];
    unsigned BestSuff = NoReg, BestSuffEnd = InfPos;
    unsigned BestInsuff = NoReg, BestInsuffEnd = 0;
    for (unsigned R : TD.allocOrder(RC)) {
      unsigned FH = fixedHoleEnd(R, Pos);
      if (FH <= DefPos)
        continue; // claimed by a convention at this instruction
      unsigned HoleEnd = FH;
      unsigned T = Occ[R];
      if (T != NoTemp) {
        if (tempLiveAt(T, Pos) || !holeIsReal(T, Pos))
          continue; // occupied (or value survives the gap): eviction only
        HoleEnd = std::min(HoleEnd, tempHoleEnd(T, Pos));
        if (HoleEnd <= DefPos)
          continue; // the hole-resident is redefined at this instruction
      }
      if (HoleEnd >= VEnd) {
        // Sufficient hole: prefer the smallest (§2.2); on ties, the temp's
        // previous register.
        if (BestSuff == NoReg || HoleEnd < BestSuffEnd ||
            (HoleEnd == BestSuffEnd && R == Last)) {
          BestSuff = R;
          BestSuffEnd = HoleEnd;
        }
      } else if (BestInsuff == NoReg || HoleEnd > BestInsuffEnd ||
                 (HoleEnd == BestInsuffEnd && R == Last)) {
        // Insufficient hole: prefer the largest (§2.5); ties as above.
        BestInsuff = R;
        BestInsuffEnd = HoleEnd;
      }
    }
    unsigned Chosen = BestSuff != NoReg ? BestSuff : BestInsuff;
    if (Chosen != NoReg) {
      if (Occ[Chosen] != NoTemp) {
        // Displacing a hole-resident costs nothing: its next reference is a
        // definition (§2.3 "no store is needed ... during a lifetime hole").
        Loc[Occ[Chosen]] = LocNowhere;
        Occ[Chosen] = NoTemp;
      }
      return Chosen;
    }

    // All registers are occupied by live temporaries: evict the one with
    // the lowest priority, i.e. the largest loop-depth-weighted distance to
    // its next reference (§2.3).
    double BestScore = -1;
    unsigned BestR = NoReg;
    for (unsigned R : TD.allocOrder(RC)) {
      unsigned FH = fixedHoleEnd(R, Pos);
      if (FH <= DefPos)
        continue;
      unsigned T = Occ[R];
      if (T == NoTemp)
        continue;
      const Reference *NR = nextRef(T, Pos);
      if (ForUse && NR && NR->Pos <= DefPos)
        continue; // being read by the current instruction
      double Dist = NR ? static_cast<double>(NR->Pos - Pos)
                       : static_cast<double>(InfPos) / 2;
      double Score = Dist / depthWeight(NR ? NR->Depth : 0);
      if (Score > BestScore) {
        BestScore = Score;
        BestR = R;
      }
    }
    assert(BestR != NoReg &&
           "register allocation impossible: too few allocatable registers");
    evictVictim(Occ[BestR], BestR, Pos);
    return BestR;
  }

  // --- Per-instruction processing ------------------------------------------

  void processUses(Instr &I, unsigned UsePos, unsigned DefPos) {
    const OpcodeInfo &Info = I.info();
    for (unsigned S = Info.NumDefs; S < unsigned(Info.NumDefs) + Info.NumUses;
         ++S) {
      Operand &Op = I.op(S);
      if (!Op.isVReg())
        continue;
      unsigned V = Op.vregId();
      unsigned R;
      if (isRegLoc(Loc[V])) {
        R = regOfLoc(Loc[V]);
        assert(Occ[R] == V && "binding invariant violated");
      } else {
        // Reference to a spilled (or not-yet-materialised) temporary: find
        // it a register, reload, and optimistically keep it there — the
        // second chance (§2.3).
        R = allocateReg(F.vregClass(V), V, UsePos, DefPos, /*ForUse=*/true);
        Prefix.push_back(Slots.makeLoad(V, R, SpillKind::EvictLoad));
        ++Stats.EvictLoads;
        ++Stats.LifetimeSplits;
        EverSpilled.set(V);
        Occ[R] = V;
        Loc[V] = locReg(R);
        LastReg[V] = R;
        setConsistent(V); // a spill load makes reg and memory agree
        if (DL.enabled())
          DL.record(F, obs::DecisionKind::SecondChanceLoad, V, UsePos, R,
                    "reload at next use; optimistically stays registered");
      }
      Op = Operand::preg(R);
    }
  }

  /// Evict tenants of registers whose convention hole expires at this
  /// instruction (call clobbers, argument/return register uses).
  void fixedSweep(unsigned UsePos, unsigned DefPos) {
    for (unsigned R = 0; R < NumPRegs; ++R) {
      unsigned T = Occ[R];
      if (T == NoTemp)
        continue;
      if (!tempLiveAt(T, UsePos) && tempHoleEnd(T, UsePos) == InfPos) {
        // Tenant's lifetime is over; reclaim lazily.
        Occ[R] = NoTemp;
        Loc[T] = LocNowhere;
        continue;
      }
      if (fixedHoleEnd(R, UsePos) <= DefPos)
        evictForConvention(T, R, UsePos, DefPos);
    }
  }

  bool canCoalesce(unsigned V, unsigned RS, unsigned DefPos) {
    if (RS >= NumPRegs || !TD.isAllocatable(RS))
      return false;
    if (pregClass(RS) != F.vregClass(V))
      return false;
    unsigned VEnd = LT.vreg(V).endPos();
    // The register must have a hole starting right after the move's source
    // use that contains the destination's entire lifetime (§2.5).
    if (fixedHoleEnd(RS, DefPos) < VEnd)
      return false;
    unsigned T = Occ[RS];
    if (T != NoTemp) {
      if (tempLiveAt(T, DefPos) || !holeIsReal(T, DefPos))
        return false;
      if (tempHoleEnd(T, DefPos) < VEnd)
        return false;
    }
    return true;
  }

  void processDefs(Instr &I, unsigned DefPos) {
    if (I.info().NumDefs == 0)
      return;
    Operand &Op = I.op(0);
    if (!Op.isVReg())
      return; // fixed def; the sweep vacated the register already
    unsigned V = Op.vregId();

    // Move-coalescing check (§2.5): after the source has been rewritten,
    // try to give the destination the same register so the peephole can
    // delete the move. This is also what removes the parameter-register
    // moves at procedure entry.
    if (Opts.MoveCoalesce &&
        (I.opcode() == Opcode::Mov || I.opcode() == Opcode::FMov) &&
        I.op(1).isPReg() && !isRegLoc(Loc[V])) {
      unsigned RS = I.op(1).pregId();
      if (canCoalesce(V, RS, DefPos)) {
        if (Occ[RS] != NoTemp)
          Loc[Occ[RS]] = LocNowhere;
        Occ[RS] = V;
        Loc[V] = locReg(RS);
        LastReg[V] = RS;
        Op = Operand::preg(RS);
        ++Stats.MovesCoalesced;
        if (DL.enabled())
          DL.record(F, obs::DecisionKind::CoalesceMove, V, DefPos, RS,
                    "destination fits in hole opening after move source");
        markWrite(V);
        return;
      }
    }

    unsigned R;
    if (isRegLoc(Loc[V])) {
      R = regOfLoc(Loc[V]);
      assert(Occ[R] == V && "binding invariant violated");
    } else {
      R = allocateReg(F.vregClass(V), V, DefPos, DefPos, /*ForUse=*/false);
      if (Loc[V] == LocMem) {
        ++Stats.LifetimeSplits; // second chance on a write (§2.3)
        if (DL.enabled())
          DL.record(F, obs::DecisionKind::SecondChanceDef, V, DefPos, R,
                    "spilled value redefined; store postponed until eviction");
      }
      Occ[R] = V;
      Loc[V] = locReg(R);
      LastReg[V] = R;
    }
    Op = Operand::preg(R);
    markWrite(V);
  }

  void markWrite(unsigned V) {
    Consistent[V] = false;
    markDetermined(V);
  }

  // --- Block boundaries -----------------------------------------------------

  void blockTop(unsigned B) {
    CurBlock = B;
    if (conservative()) {
      // §2.6: initialise the working ARE_CONSISTENT with the intersection
      // of the saved bottoms of all predecessors; an unprocessed
      // predecessor (back edge) clears everything.
      for (unsigned V : MadeConsistent)
        Consistent[V] = 0;
      MadeConsistent.clear();
      bool AllProcessed = true;
      for (unsigned P : Preds[B])
        if (P >= B)
          AllProcessed = false;
      if (AllProcessed && !Preds[B].empty()) {
        std::vector<unsigned> Inter = ExitConsistent[Preds[B][0]], Next;
        for (unsigned PI = 1; PI < Preds[B].size(); ++PI) {
          const std::vector<unsigned> &Bot = ExitConsistent[Preds[B][PI]];
          Next.clear();
          std::set_intersection(Inter.begin(), Inter.end(), Bot.begin(),
                                Bot.end(), std::back_inserter(Next));
          Inter.swap(Next);
        }
        for (unsigned V : Inter)
          Consistent[V] = 1;
        MadeConsistent = std::move(Inter);
      }
    }
    recordRegisters(RegTop[B], LV.liveIn(B));
  }

  void blockBottom(unsigned B) {
    recordRegisters(RegBottom[B], LV.liveOut(B));
    if (conservative()) {
      std::vector<unsigned> &Exit = ExitConsistent[B];
      for (unsigned V : MadeConsistent)
        if (Consistent[V] && LV.isCrossBlock(V))
          Exit.push_back(V);
      std::sort(Exit.begin(), Exit.end());
      Exit.erase(std::unique(Exit.begin(), Exit.end()), Exit.end());
    }
  }

  /// The temps of \p Live held in registers right now, by vreg id; every
  /// other temp of \p Live is in its memory home (or nowhere yet).
  void recordRegisters(std::vector<BoundaryLoc> &Out, Liveness::Set Live) {
    for (unsigned R = 0; R < NumPRegs; ++R) {
      unsigned T = Occ[R];
      if (T != NoTemp && Live.test(T))
        Out.push_back({T, locReg(R), Consistent[T] != 0});
    }
    std::sort(Out.begin(), Out.end(),
              [](const BoundaryLoc &A, const BoundaryLoc &B) {
                return A.V < B.V;
              });
  }
};

AllocStats BinpackScanner::run() {
  assert(F.CallsLowered && "lower calls before register allocation");
  unsigned NumV = F.numVRegs();
  unsigned NumBlocks = F.numBlocks();
  Stats.RegCandidates = NumV;

  Occ.fill(NoTemp);
  Loc.assign(NumV, LocNowhere);
  LastReg.assign(NumV, NoReg);
  Consistent.assign(NumV, 0);
  DeterminedStamp.assign(NumV, 0);
  EverSpilled.resize(NumV);
  SegCur.assign(NumV, 0);
  RefCur.assign(NumV, 0);
  FixCur.fill(0);
  RegTop.assign(NumBlocks, {});
  RegBottom.assign(NumBlocks, {});
  if (conservative())
    ExitConsistent.assign(NumBlocks, {});
  CI = std::make_unique<ConsistencyInfo>(NumBlocks);
  Preds.recompute(F);

  // The single allocate/rewrite pass (§2.3).
  {
    obs::ScopedSpan Span("binpack.scan", "phase");
    for (unsigned B = 0; B < NumBlocks; ++B) {
      blockTop(B);
      Block &Blk = F.block(B);
      std::vector<uint32_t> Out;
      Out.reserve(Blk.size() + 4);
      bool Inserted = false;
      for (unsigned Idx = 0; Idx < Blk.size(); ++Idx) {
        Instr I = Blk.instrs()[Idx];
        unsigned G = Num.instrIndex(B, Idx);
        unsigned UsePos = Numbering::usePos(G);
        unsigned DefPos = Numbering::defPos(G);
        Prefix.clear();
        processUses(I, UsePos, DefPos);
        fixedSweep(UsePos, DefPos);
        processDefs(I, DefPos);
        for (const Instr &P : Prefix) {
          Out.push_back(Blk.makeInstr(P));
          Inserted = true;
        }
        Blk.instrs()[Idx] = I; // rewritten in place: id preserved
        Out.push_back(Blk.instrId(Idx));
      }
      if (Inserted)
        Blk.setInstrIds(Out);
      blockBottom(B);
    }
  }

  // §2.4 dataflow (skipped in conservative mode, which is sound without it).
  // It first registers the resolver's own reliance on exit consistency:
  // edges that will suppress a reg->mem store because ARE_CONSISTENT(p) is
  // set, i.e. a consistent temp held in a register at p's bottom and in
  // memory at the successor's top.
  bool Iterative = !conservative();
  if (Iterative) {
    obs::ScopedSpan Span("binpack.dataflow", "phase");
    for (unsigned B = 0; B < NumBlocks; ++B)
      for (unsigned S : F.block(B).successors()) {
        Liveness::Set LiveInS = LV.liveIn(S);
        for (const BoundaryLoc &Bot : RegBottom[B])
          if (Bot.Consistent && LiveInS.test(Bot.V) &&
              !std::binary_search(RegTop[S].begin(), RegTop[S].end(), Bot,
                                  [](const BoundaryLoc &X,
                                     const BoundaryLoc &Y) {
                                    return X.V < Y.V;
                                  }))
            CI->UsedAtExit[B].push_back(Bot.V);
      }
    Stats.DataflowIterations = CI->solve(F, &RPO);
  }

  // Resolution (§2.4).
  {
    obs::ScopedSpan Span("binpack.resolution", "phase");
    ResolverInput In;
    In.LV = &LV;
    In.Top = &RegTop;
    In.Bottom = &RegBottom;
    In.CI = Iterative ? CI.get() : nullptr;
    ResolveCounts RC = resolveEdges(F, In, Slots);
    Stats.ResolveLoads = RC.Loads;
    Stats.ResolveStores = RC.Stores;
    Stats.ResolveMoves = RC.Moves;
    Stats.SplitEdges = RC.SplitEdges;
  }

  Stats.SpilledTemps = EverSpilled.count();

  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled()) {
    CR.counter("binpack.evictions").add(Evictions);
    CR.counter("binpack.second_chance_splits").add(Stats.LifetimeSplits);
    CR.counter("binpack.coalesced_moves").add(Stats.MovesCoalesced);
    CR.counter("binpack.dataflow_iterations").add(Stats.DataflowIterations);
  }
  return Stats;
}

} // namespace

AllocStats lsra::runSecondChanceBinpack(Function &F, const TargetDesc &TD,
                                        const AllocOptions &Opts) {
  FunctionAnalyses FA(F, TD);
  return runSecondChanceBinpack(F, TD, Opts, FA);
}

AllocStats lsra::runSecondChanceBinpack(Function &F, const TargetDesc &TD,
                                        const AllocOptions &Opts,
                                        FunctionAnalyses &FA) {
  assert(&FA.function() == &F && "analyses are for a different function");
  return BinpackScanner(F, TD, Opts, FA).run();
}
