//===- regalloc/EbbScan.cpp - One-pass EBB second-chance scan -------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The one-pass backend: §2's second-chance scan restricted to extended basic
// blocks so it runs in exactly one pass with no global dataflow.
//
//  * EBBs are grown over a reverse-post-order walk: every unclaimed block
//    starts a tree, and a successor joins its predecessor's tree iff it has
//    that single predecessor. Joins (and loop headers, which always have a
//    back edge) therefore always start fresh trees.
//  * The scan state — register occupancy, per-register dirty bits, LRU
//    stamps, and the convention reservations — flows down each tree by
//    value: siblings restart from a snapshot taken at the branch point, so
//    every in-tree path sees a consistent single-pass history.
//  * Spilling is second-chance at the point of loss: an evicted temporary
//    is stored only if its register is dirty (memory home stale), and it
//    optimistically regains a register at its next use via a reload.
//  * At every edge that leaves the tree, dirty register-resident values
//    are stored before the terminator. Memory is thereby the canonical
//    location on all cross-EBB edges, which makes the store the degenerate
//    form of Resolver edge repair — no resolution pass, no consistency
//    dataflow, no liveness. Values that happen to be dead get stored too;
//    that is the price of skipping liveness, and it is what the full
//    binpacker avoids.
//
// Convention registers are handled without fixed lifetimes: a register
// named by a fixed def (CArg moves, call returns, the pre-Ret move) is
// reserved from that def until a call's clobber sweep consumes it, and the
// entry block starts with the incoming argument registers reserved. Since
// lowered code reads each convention value exactly once, a register move
// from a reserved register may coalesce its destination onto it (§2.5's
// move elimination in its one-pass form).
//
//===----------------------------------------------------------------------===//

#include "regalloc/EbbScan.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Order.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "regalloc/Resolver.h"
#include "regalloc/SpillSlots.h"
#include "support/BitVector.h"

#include <array>
#include <cassert>
#include <vector>

using namespace lsra;

namespace {

constexpr unsigned NoTemp = ~0u;
constexpr unsigned NoReg = ~0u;

/// The per-path scan state. Copied at EBB branch points (about half a
/// kilobyte), so keep it POD and flat.
struct ScanState {
  std::array<unsigned, NumPRegs> Occ;   // register -> tenant vreg
  std::array<uint32_t, NumPRegs> Stamp; // LRU touch stamps
  uint64_t Dirty = 0;                   // tenant's memory home is stale
  uint64_t Reserved = 0;                // convention value live in register

  void reset() {
    Occ.fill(NoTemp);
    Stamp.fill(0);
    Dirty = 0;
    Reserved = 0;
  }
};

class EbbScanner {
public:
  EbbScanner(Function &F, const TargetDesc &TD, const AllocOptions &Opts)
      : F(F), TD(TD), Opts(Opts), Slots(F) {}

  AllocStats run();

private:
  Function &F;
  const TargetDesc &TD;
  const AllocOptions &Opts;
  SpillSlots Slots;
  AllocStats Stats;

  ScanState S;
  std::vector<LocCode> Loc; // vreg -> current location, kept in sync with S
  BitVector EverSpilled;
  uint32_t Clock = 0;
  unsigned Ebbs = 0;
  unsigned ExitStores = 0;

  std::vector<Instr> Prefix; // code to insert before the current instruction
  uint64_t Pinned = 0;       // regs this instruction already touches
  uint64_t FixedDefs = 0;    // regs this instruction writes by convention

  static uint64_t bit(unsigned P) { return 1ull << P; }

  void bindReg(unsigned P, unsigned V, bool MakeDirty) {
    S.Occ[P] = V;
    S.Stamp[P] = ++Clock;
    Loc[V] = locReg(P);
    if (MakeDirty)
      S.Dirty |= bit(P);
    else
      S.Dirty &= ~bit(P);
  }

  /// Drop P's tenant, storing its value first when the memory home is
  /// stale. Clean tenants just unbind: a clean binding always came from a
  /// load or a store, so the home already holds the current value.
  void evict(unsigned P, SpillKind StoreKind) {
    unsigned V = S.Occ[P];
    if (V == NoTemp)
      return;
    if (S.Dirty & bit(P)) {
      Prefix.push_back(Slots.makeStore(V, P, StoreKind));
      if (StoreKind == SpillKind::ResolveStore)
        ++Stats.ResolveStores;
      else
        ++Stats.EvictStores;
      EverSpilled.set(V);
      S.Dirty &= ~bit(P);
    }
    S.Occ[P] = NoTemp;
    if (Loc[V] == locReg(P))
      Loc[V] = LocMem;
  }

  /// Pick a register of class RC: the first free one in allocation order,
  /// else the least-recently-touched evictable tenant (the one-pass stand-in
  /// for §2.3's farthest-next-use priority).
  unsigned allocateReg(RegClass RC) {
    unsigned BestEvict = NoReg;
    uint32_t BestStamp = 0;
    for (unsigned R : TD.allocOrder(RC)) {
      if ((S.Reserved | Pinned | FixedDefs) & bit(R))
        continue;
      if (S.Occ[R] == NoTemp)
        return R;
      if (BestEvict == NoReg || S.Stamp[R] < BestStamp) {
        BestEvict = R;
        BestStamp = S.Stamp[R];
      }
    }
    assert(BestEvict != NoReg &&
           "ebb-scan: no allocatable register for class (limit too small)");
    evict(BestEvict, SpillKind::EvictStore);
    return BestEvict;
  }

  /// Restore a branch-point snapshot, fixing the vreg location map by a
  /// clear-then-set diff so rebound values land in the snapshot's register.
  void restoreState(const ScanState &Want) {
    for (unsigned P = 0; P < NumPRegs; ++P) {
      unsigned Cur = S.Occ[P];
      if (Cur != Want.Occ[P] && Cur != NoTemp && Loc[Cur] == locReg(P))
        Loc[Cur] = LocMem;
    }
    for (unsigned P = 0; P < NumPRegs; ++P)
      if (Want.Occ[P] != NoTemp)
        Loc[Want.Occ[P]] = locReg(P);
    S = Want;
  }

  void processInstr(Instr &I);
  void processUses(Instr &I);
  void processDef(Instr &I);
  void spillAllDirty();
  void scanBlock(unsigned B, bool ExitSpill);
};

void EbbScanner::processUses(Instr &I) {
  const OpcodeInfo &Info = I.info();
  unsigned Begin = Info.NumDefs, End = Info.NumDefs + Info.NumUses;
  // Pre-pin every register already holding one of this instruction's use
  // values so an earlier reload cannot evict a later operand.
  for (unsigned Sl = Begin; Sl < End; ++Sl) {
    const Operand &Op = I.op(Sl);
    if (Op.isVReg() && isRegLoc(Loc[Op.vregId()]))
      Pinned |= bit(regOfLoc(Loc[Op.vregId()]));
  }
  for (unsigned Sl = Begin; Sl < End; ++Sl) {
    Operand &Op = I.op(Sl);
    if (!Op.isVReg())
      continue;
    unsigned V = Op.vregId();
    unsigned R;
    if (isRegLoc(Loc[V])) {
      R = regOfLoc(Loc[V]);
      assert(S.Occ[R] == V && "location map out of sync");
      S.Stamp[R] = ++Clock;
    } else {
      // Second chance: the value lost its register somewhere upstream (or
      // lives in memory across an EBB edge); give it a new one here.
      R = allocateReg(F.vregClass(V));
      Prefix.push_back(Slots.makeLoad(V, R, SpillKind::EvictLoad));
      ++Stats.EvictLoads;
      ++Stats.LifetimeSplits;
      EverSpilled.set(V);
      bindReg(R, V, /*MakeDirty=*/false);
    }
    Pinned |= bit(R);
    Op = Operand::preg(R);
  }
}

void EbbScanner::processDef(Instr &I) {
  const OpcodeInfo &Info = I.info();
  if (Info.NumDefs == 0)
    return;
  Operand &Op = I.op(0);
  if (!Op.isVReg())
    return;
  unsigned V = Op.vregId();
  if (isRegLoc(Loc[V])) {
    unsigned R = regOfLoc(Loc[V]);
    assert(S.Occ[R] == V && "location map out of sync");
    S.Stamp[R] = ++Clock;
    S.Dirty |= bit(R);
    Op = Operand::preg(R);
    return;
  }
  // §2.5 move coalescing, one-pass form: a register move reading a
  // convention register may bind its destination onto the source — lowered
  // code reads each convention value exactly once, so the reservation ends
  // at this move.
  if (Opts.MoveCoalesce && I.isRegMove() && I.op(1).isPReg()) {
    unsigned RS = I.op(1).pregId();
    if (TD.isAllocatable(RS) && pregClass(RS) == F.vregClass(V) &&
        S.Occ[RS] == NoTemp && !(FixedDefs & bit(RS))) {
      S.Reserved &= ~bit(RS);
      bindReg(RS, V, /*MakeDirty=*/true);
      Op = Operand::preg(RS);
      ++Stats.MovesCoalesced;
      return;
    }
  }
  unsigned R = allocateReg(F.vregClass(V));
  bindReg(R, V, /*MakeDirty=*/true);
  Op = Operand::preg(R);
}

void EbbScanner::processInstr(Instr &I) {
  const OpcodeInfo &Info = I.info();
  Pinned = 0;
  FixedDefs = 0;
  uint64_t FixedUses = 0;
  for (unsigned Sl = Info.NumDefs; Sl < unsigned(Info.NumDefs) + Info.NumUses;
       ++Sl)
    if (I.op(Sl).isPReg())
      FixedUses |= bit(I.op(Sl).pregId());
  for (unsigned Sl = 0; Sl < Info.NumDefs; ++Sl)
    if (I.op(Sl).isPReg())
      FixedDefs |= bit(I.op(Sl).pregId());
  if (I.isCall()) {
    for (unsigned A = 0; A < I.CallIntArgs; ++A)
      FixedUses |= bit(TargetDesc::intArgReg(A));
    for (unsigned A = 0; A < I.CallFpArgs; ++A)
      FixedUses |= bit(TargetDesc::fpArgReg(A));
  }
  if (I.CallRet == CallRetKind::Int)
    FixedDefs |= bit(TargetDesc::intRetReg());
  else if (I.CallRet == CallRetKind::Float)
    FixedDefs |= bit(TargetDesc::fpRetReg());
  Pinned = FixedUses;

  processUses(I);

  if (I.isCall()) {
    // Caller-saved tenants lose their register across the call; convention
    // values (the just-read argument registers) die with it.
    uint64_t Clobber = TD.callClobberMask();
    for (unsigned P = 0; P < NumPRegs; ++P)
      if (Clobber & bit(P))
        evict(P, SpillKind::EvictStore);
    S.Reserved &= ~Clobber;
  }
  for (unsigned P = 0; P < NumPRegs; ++P) {
    if (!(FixedDefs & bit(P)))
      continue;
    evict(P, SpillKind::EvictStore);
    S.Reserved |= bit(P);
    S.Stamp[P] = ++Clock;
  }

  processDef(I);
}

/// Store every dirty register-resident value (bindings survive; memory
/// becomes canonical). Runs before the terminator of any block with an edge
/// out of the current EBB.
void EbbScanner::spillAllDirty() {
  for (unsigned P = 0; P < NumPRegs; ++P) {
    if (!(S.Dirty & bit(P)))
      continue;
    unsigned V = S.Occ[P];
    assert(V != NoTemp && "dirty bit without a tenant");
    Prefix.push_back(Slots.makeStore(V, P, SpillKind::ResolveStore));
    ++Stats.ResolveStores;
    ++ExitStores;
    EverSpilled.set(V);
    S.Dirty &= ~bit(P);
  }
}

void EbbScanner::scanBlock(unsigned B, bool ExitSpill) {
  Block &Blk = F.block(B);
  std::vector<uint32_t> Out;
  Out.reserve(Blk.size() + 4);
  bool Inserted = false;
  for (unsigned Idx = 0; Idx < Blk.size(); ++Idx) {
    Instr I = Blk.instrs()[Idx];
    Prefix.clear();
    processInstr(I);
    if (ExitSpill && Idx + 1 == Blk.size())
      spillAllDirty();
    for (const Instr &P : Prefix) {
      Out.push_back(Blk.makeInstr(P));
      Inserted = true;
    }
    Blk.instrs()[Idx] = I; // rewritten in place: id preserved
    Out.push_back(Blk.instrId(Idx));
  }
  if (Inserted)
    Blk.setInstrIds(Out);
}

AllocStats EbbScanner::run() {
  unsigned NumV = F.numVRegs();
  Stats.RegCandidates = NumV;
  Loc.assign(NumV, LocNowhere);
  EverSpilled.resize(NumV);
  S.reset();

  PredecessorLists Preds = F.predecessors();
  std::vector<unsigned> RPO = reversePostOrder(F);
  std::vector<uint8_t> Visited(F.numBlocks(), 0);

  struct Frame {
    unsigned B;
    ScanState St;
  };
  std::vector<Frame> Stack;

  obs::ScopedSpan Span("ebb.scan", "phase");
  for (unsigned Head : RPO) {
    if (Visited[Head])
      continue;
    ++Ebbs;
    ScanState Init;
    Init.reset();
    if (Head == 0) {
      // The entry holds the incoming arguments in the convention registers
      // until the parameter-binding moves consume them.
      for (unsigned A = 0;
           A < F.IntParamVRegs.size() && A < TargetDesc::NumArgRegs; ++A)
        Init.Reserved |= bit(TargetDesc::intArgReg(A));
      for (unsigned A = 0;
           A < F.FpParamVRegs.size() && A < TargetDesc::NumArgRegs; ++A)
        Init.Reserved |= bit(TargetDesc::fpArgReg(A));
    }
    Visited[Head] = 1;
    Stack.push_back({Head, Init});
    while (!Stack.empty()) {
      Frame Fr = std::move(Stack.back());
      Stack.pop_back();
      restoreState(Fr.St);
      // Claim join-free successors up front: whether any edge leaves the
      // EBB decides the exit spill before the terminator is rebuilt.
      std::vector<unsigned> Kids;
      bool Exit = false;
      for (unsigned Su : F.block(Fr.B).successors()) {
        if (!Visited[Su] && Preds[Su].size() == 1)
          Kids.push_back(Su);
        else
          Exit = true;
      }
      scanBlock(Fr.B, Exit);
      // Push in reverse so the first successor's subtree scans first.
      for (auto It = Kids.rbegin(); It != Kids.rend(); ++It) {
        Visited[*It] = 1;
        Stack.push_back({*It, S});
      }
    }
  }

  Stats.SpilledTemps = EverSpilled.count();

  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled()) {
    CR.counter("ebb.trees").add(Ebbs);
    CR.counter("ebb.exit_stores").add(ExitStores);
    CR.counter("ebb.reloads").add(Stats.EvictLoads);
    CR.counter("ebb.coalesced_moves").add(Stats.MovesCoalesced);
  }
  return Stats;
}

} // namespace

AllocStats lsra::runEbbScan(Function &F, const TargetDesc &TD,
                            const AllocOptions &Opts) {
  assert(F.CallsLowered && "lower calls before allocation");
  return EbbScanner(F, TD, Opts).run();
}

AllocStats lsra::runEbbScan(Function &F, const TargetDesc &TD,
                            const AllocOptions &Opts, FunctionAnalyses &FA) {
  assert(&FA.function() == &F && "analysis cache bound to another function");
  (void)FA; // no global analyses consumed
  return runEbbScan(F, TD, Opts);
}
