//===- tests/spillcleanup_test.cpp - §2.4 follow-on optimisation ----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ExactnessInputs.h"
#include "check/Clone.h"
#include "driver/Pipeline.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "passes/SpillCleanup.h"
#include "regalloc/Registry.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

using namespace lsra;

namespace {

/// The cleanup as first written, kept as the reference the sparse pass must
/// match: a dense slot -> register state in every block's In and Out, met
/// over all slots and swept round-robin in block-index order until no Out
/// changes, re-walking every instruction on each sweep.
namespace dense {

constexpr unsigned NoReg = ~0u;  // bottom: slot not mirrored anywhere
constexpr unsigned AnyReg = ~1u; // top: unvisited (identity for the meet)

class SlotState {
public:
  SlotState() = default;
  explicit SlotState(unsigned NumSlots, unsigned Init = NoReg)
      : SlotReg(NumSlots, Init) {
    RegSlot.fill(~0u);
    if (Init == NoReg)
      Synced = true;
  }

  unsigned regForSlot(unsigned S) const { return SlotReg[S]; }

  void record(unsigned S, unsigned R) {
    invalidateReg(R);
    if (SlotReg[S] < NumPRegs)
      RegSlot[SlotReg[S]] = ~0u;
    SlotReg[S] = R;
    RegSlot[R] = S;
  }

  void invalidateReg(unsigned R) {
    if (RegSlot[R] != ~0u) {
      SlotReg[RegSlot[R]] = NoReg;
      RegSlot[R] = ~0u;
    }
  }

  bool meet(const SlotState &Other) {
    bool Changed = false;
    for (unsigned S = 0; S < SlotReg.size(); ++S) {
      unsigned A = SlotReg[S], B = Other.SlotReg[S];
      unsigned M = A == AnyReg ? B : (B == AnyReg ? A : (A == B ? A : NoReg));
      if (M != A) {
        SlotReg[S] = M;
        Changed = true;
      }
    }
    Synced = false;
    return Changed;
  }

  void syncInverse() {
    if (Synced)
      return;
    RegSlot.fill(~0u);
    for (unsigned S = 0; S < SlotReg.size(); ++S)
      if (SlotReg[S] < NumPRegs)
        RegSlot[SlotReg[S]] = S;
    Synced = true;
  }

  void dropTop() {
    for (unsigned &R : SlotReg)
      if (R == AnyReg)
        R = NoReg;
  }

private:
  std::vector<unsigned> SlotReg;
  std::array<unsigned, NumPRegs> RegSlot;
  bool Synced = false;
};

void transfer(const Instr &I, const TargetDesc &TD, SlotState &State) {
  switch (I.opcode()) {
  case Opcode::StSlot:
  case Opcode::FStSlot:
  case Opcode::LdSlot:
  case Opcode::FLdSlot:
    State.record(I.op(1).slotId(), I.op(0).pregId());
    return;
  default:
    break;
  }
  forEachDefinedReg(I, [&](const Operand &Op) {
    if (Op.isPReg())
      State.invalidateReg(Op.pregId());
  });
  forEachClobberedReg(I, TD, [&](unsigned P) { State.invalidateReg(P); });
}

SpillCleanupStats cleanup(Function &F, const TargetDesc &TD) {
  SpillCleanupStats Stats;
  unsigned NumBlocks = F.numBlocks();
  unsigned NumSlots = F.numSlots();
  if (NumSlots == 0)
    return Stats;

  std::vector<SlotState> In(NumBlocks), Out(NumBlocks);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    In[B] = SlotState(NumSlots, AnyReg);
    Out[B] = SlotState(NumSlots, AnyReg);
  }
  In[0] = SlotState(NumSlots, NoReg);

  auto Preds = F.predecessors();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B < NumBlocks; ++B) {
      if (B != 0)
        for (unsigned P : Preds[B])
          In[B].meet(Out[P]);
      SlotState S = In[B];
      S.dropTop();
      S.syncInverse();
      for (const Instr &I : F.block(B).instrs())
        transfer(I, TD, S);
      Changed |= Out[B].meet(S);
    }
  }

  for (unsigned B = 0; B < NumBlocks; ++B) {
    SlotState State = In[B];
    State.dropTop();
    State.syncInverse();
    Block &Blk = F.block(B);
    std::vector<uint32_t> Kept;
    for (unsigned Idx = 0; Idx < Blk.size(); ++Idx) {
      Instr &I = Blk.instrs()[Idx];
      uint32_t Id = Blk.instrId(Idx);
      switch (I.opcode()) {
      case Opcode::StSlot:
      case Opcode::FStSlot: {
        unsigned R = I.op(0).pregId();
        unsigned S = I.op(1).slotId();
        if (State.regForSlot(S) == R) {
          ++Stats.StoresDeleted;
          continue;
        }
        State.record(S, R);
        Kept.push_back(Id);
        continue;
      }
      case Opcode::LdSlot:
      case Opcode::FLdSlot: {
        unsigned D = I.op(0).pregId();
        unsigned S = I.op(1).slotId();
        unsigned Avail = State.regForSlot(S);
        if (Avail == D) {
          ++Stats.LoadsDeleted;
          continue;
        }
        if (Avail < NumPRegs && pregClass(Avail) == pregClass(D)) {
          Instr Move(pregClass(D) == RegClass::Float ? Opcode::FMov
                                                     : Opcode::Mov,
                     Operand::preg(D), Operand::preg(Avail));
          Move.Spill = I.Spill == SpillKind::ResolveLoad
                           ? SpillKind::ResolveMove
                           : (I.Spill == SpillKind::EvictLoad
                                  ? SpillKind::EvictMove
                                  : I.Spill);
          State.record(S, D);
          I = Move;
          Kept.push_back(Id);
          ++Stats.LoadsToMoves;
          continue;
        }
        State.record(S, D);
        Kept.push_back(Id);
        continue;
      }
      default:
        break;
      }
      transfer(I, TD, State);
      Kept.push_back(Id);
    }
    if (Kept.size() != Blk.size())
      Blk.setInstrIds(Kept);
  }
  return Stats;
}

} // namespace dense

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

/// Hand-built allocated function scaffolding.
struct Allocated {
  Module M;
  Function &F;
  Block &B;
  unsigned Slot;
  Allocated()
      : F(M.addFunction("f")), B(F.addBlock("entry")),
        Slot(F.newSlot(RegClass::Int)) {
    F.CallsLowered = true;
  }
  void finish() { B.append(Instr(Opcode::Ret)); }
  Instr store(unsigned R, unsigned S, SpillKind K = SpillKind::EvictStore) {
    Instr I(Opcode::StSlot, Operand::preg(R), Operand::slot(S));
    I.Spill = K;
    return I;
  }
  Instr load(unsigned R, unsigned S, SpillKind K = SpillKind::EvictLoad) {
    Instr I(Opcode::LdSlot, Operand::preg(R), Operand::slot(S));
    I.Spill = K;
    return I;
  }
};

TEST(SpillCleanup, DeletesReloadIntoSameRegister) {
  Allocated A;
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(A.load(intReg(1), A.Slot)); // value still in $1
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsDeleted, 1u);
  EXPECT_EQ(A.F.numInstrs(), 3u);
}

TEST(SpillCleanup, TurnsMetPairIntoMove) {
  Allocated A;
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(A.load(intReg(2), A.Slot)); // different register: move
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsToMoves, 1u);
  const Instr &Fwd = A.B.instrs()[2];
  EXPECT_EQ(Fwd.opcode(), Opcode::Mov);
  EXPECT_EQ(Fwd.op(1).pregId(), intReg(1));
  EXPECT_EQ(Fwd.Spill, SpillKind::EvictMove) << "accounting follows the op";
}

TEST(SpillCleanup, RegisterWriteInvalidatesAvailability) {
  Allocated A;
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(9)));
  A.B.append(A.load(intReg(1), A.Slot)); // $1 was overwritten: keep load
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.total(), 0u);
  EXPECT_EQ(A.B.instrs()[3].opcode(), Opcode::LdSlot);
}

TEST(SpillCleanup, CallClobberInvalidatesCallerSaved) {
  Allocated A;
  FunctionBuilder G(A.M, "g", 0, 0, CallRetKind::None);
  G.setBlock(G.newBlock("entry"));
  G.emit(Instr(Opcode::Ret));
  G.function().CallsLowered = true;

  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::Call, Operand::func(G.function().id())));
  A.B.append(A.load(intReg(1), A.Slot)); // $1 clobbered by the call
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.total(), 0u) << "caller-saved availability dies at calls";
}

TEST(SpillCleanup, CalleeSavedSurvivesCall) {
  Allocated A;
  FunctionBuilder G(A.M, "g", 0, 0, CallRetKind::None);
  G.setBlock(G.newBlock("entry"));
  G.emit(Instr(Opcode::Ret));
  G.function().CallsLowered = true;

  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(9)), Operand::imm(7)));
  A.B.append(A.store(intReg(9), A.Slot));
  A.B.append(Instr(Opcode::Call, Operand::func(G.function().id())));
  A.B.append(A.load(intReg(9), A.Slot)); // $9 is callee-saved
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsDeleted, 1u);
}

TEST(SpillCleanup, RedundantStoreDeleted) {
  Allocated A;
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(A.store(intReg(1), A.Slot)); // same reg, same slot, no write
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.StoresDeleted, 1u);
}

TEST(SpillCleanup, FactsFlowAcrossEdges) {
  // The analysis is global: a store in the predecessor makes the reload in
  // the successor redundant.
  Allocated A;
  Block &B2 = A.F.addBlock("next");
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::Br, Operand::label(B2.id())));
  B2.append(A.load(intReg(1), A.Slot));
  B2.append(Instr(Opcode::Ret));
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsDeleted, 1u);
}

TEST(SpillCleanup, JoinKillsDivergentFacts) {
  // Two predecessors leave the slot mirrored by different registers: the
  // meet invalidates the fact and the reload must stay.
  Allocated A;
  Block &P2 = A.F.addBlock("p2");
  Block &Join = A.F.addBlock("join");
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot)); // slot mirrored by $1
  A.B.append(Instr(Opcode::CBr, Operand::preg(intReg(1)),
                   Operand::label(P2.id()), Operand::label(Join.id())));
  P2.append(Instr(Opcode::MovI, Operand::preg(intReg(2)), Operand::imm(8)));
  P2.append(A.store(intReg(2), A.Slot)); // now mirrored by $2
  P2.append(Instr(Opcode::Br, Operand::label(Join.id())));
  Join.append(A.load(intReg(3), A.Slot)); // must stay a load
  Join.append(Instr(Opcode::Ret));
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.total(), 0u);
  EXPECT_EQ(Join.instrs()[0].opcode(), Opcode::LdSlot);
}

TEST(SpillCleanup, LoopFixpointIsSound) {
  // A loop whose body overwrites the mirroring register: the fact must not
  // survive the back edge even though the entry edge provides it.
  Allocated A;
  Block &Head = A.F.addBlock("head");
  Block &Body = A.F.addBlock("body");
  Block &Exit = A.F.addBlock("exit");
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::Br, Operand::label(Head.id())));
  Head.append(A.load(intReg(2), A.Slot)); // must remain a real load
  Head.append(Instr(Opcode::CBr, Operand::preg(intReg(2)),
                    Operand::label(Body.id()), Operand::label(Exit.id())));
  Body.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(0)));
  Body.append(Instr(Opcode::MovI, Operand::preg(intReg(2)), Operand::imm(0)));
  Body.append(Instr(Opcode::Br, Operand::label(Head.id())));
  Exit.append(Instr(Opcode::Ret));
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsToMoves, 0u);
  EXPECT_EQ(S.LoadsDeleted, 0u);
  EXPECT_EQ(Head.instrs()[0].opcode(), Opcode::LdSlot);
}

TEST(SpillCleanup, RetargetedRegisterDropsOldSlotMirror) {
  // $1 mirrors slot s0, then is re-loaded from slot s1. A later reload of
  // s0 must stay a real load: forwarding $1 would hand it s1's value
  // (the "wrong-slot" failure class).
  Allocated A;
  unsigned S1 = A.F.newSlot(RegClass::Int);
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(A.load(intReg(1), S1)); // $1 now mirrors s1, not s0
  A.B.append(A.load(intReg(2), A.Slot));
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsDeleted, 0u);
  EXPECT_EQ(S.LoadsToMoves, 0u);
  EXPECT_EQ(A.B.instrs()[3].opcode(), Opcode::LdSlot);
  EXPECT_EQ(A.B.instrs()[3].op(1).slotId(), A.Slot);
}

TEST(SpillCleanup, ScratchSlotReuseForwardsTheRightValue) {
  // The resolver reuses one scratch slot for every cycle break. Two
  // back-to-back store/load pairs through the same slot must each forward
  // from their own store's source register.
  Allocated A;
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(3)), Operand::imm(9)));
  A.B.append(A.store(intReg(1), A.Slot, SpillKind::ResolveStore));
  A.B.append(A.load(intReg(2), A.Slot, SpillKind::ResolveLoad));
  A.B.append(A.store(intReg(3), A.Slot, SpillKind::ResolveStore));
  A.B.append(A.load(intReg(4), A.Slot, SpillKind::ResolveLoad));
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsToMoves, 2u);
  // Second forwarded move reads $3 (the second store's source), never $1.
  const Instr &Second = A.B.instrs()[5];
  ASSERT_EQ(Second.opcode(), Opcode::Mov);
  EXPECT_EQ(Second.op(0).pregId(), intReg(4));
  EXPECT_EQ(Second.op(1).pregId(), intReg(3));
}

TEST(SpillCleanup, BackEdgeFactsDoNotReachFunctionEntry) {
  // The entry block has an implicit predecessor (function entry) where no
  // slot is mirrored by anything, so a fact established on a back edge
  // into the entry must not justify rewriting the entry's reload.
  Allocated A;
  Block &Exit = A.F.addBlock("exit");
  A.B.append(A.load(intReg(2), A.Slot)); // garbage-on-entry if forwarded
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::CBr, Operand::preg(intReg(2)),
                   Operand::label(A.B.id()), Operand::label(Exit.id())));
  Exit.append(Instr(Opcode::Ret));
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.total(), 0u);
  EXPECT_EQ(A.B.instrs()[0].opcode(), Opcode::LdSlot);
}

TEST(SpillCleanup, MixedClassesTrackedSeparately) {
  Allocated A;
  unsigned FSlot = A.F.newSlot(RegClass::Float);
  A.B.append(Instr(Opcode::MovF, Operand::preg(fpReg(1)),
                   Operand::fimm(1.0)));
  Instr FSt(Opcode::FStSlot, Operand::preg(fpReg(1)), Operand::slot(FSlot));
  FSt.Spill = SpillKind::EvictStore;
  A.B.append(FSt);
  Instr FLd(Opcode::FLdSlot, Operand::preg(fpReg(2)), Operand::slot(FSlot));
  FLd.Spill = SpillKind::ResolveLoad;
  A.B.append(FLd);
  A.finish();
  TargetDesc TD = TargetDesc::alphaLike();
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  EXPECT_EQ(S.LoadsToMoves, 1u);
  EXPECT_EQ(A.B.instrs()[2].opcode(), Opcode::FMov);
  EXPECT_EQ(A.B.instrs()[2].Spill, SpillKind::ResolveMove);
}

TEST(SpillCleanup, VisitOrderDecidesFactsThroughSplitBlock) {
  // Resolution appends split blocks, so a block can precede its only
  // predecessor in index order: bb1's only predecessor is bb2, which
  // carries entry's edge. The first sweep visits bb1 before any fact
  // reaches it, and its Out keeps that first, factless visit's result
  // (Out only ever meets). The reload in bb3 therefore stays a load,
  // although the maximal fixpoint would forward $1 into it.
  Allocated A;
  Block &Through = A.F.addBlock("through");
  Block &Split = A.F.addBlock("split");
  Block &Use = A.F.addBlock("use");
  A.B.append(Instr(Opcode::MovI, Operand::preg(intReg(1)), Operand::imm(7)));
  A.B.append(A.store(intReg(1), A.Slot));
  A.B.append(Instr(Opcode::Br, Operand::label(Split.id())));
  Through.append(Instr(Opcode::Br, Operand::label(Use.id())));
  Split.append(Instr(Opcode::Br, Operand::label(Through.id())));
  Use.append(A.load(intReg(2), A.Slot));
  Use.append(Instr(Opcode::Ret));
  ASSERT_LT(Through.id(), Split.id());
  TargetDesc TD = TargetDesc::alphaLike();
  std::unique_ptr<Module> Ref = cloneModule(A.M);
  SpillCleanupStats S = cleanupSpillCode(A.F, TD);
  SpillCleanupStats D = dense::cleanup(*Ref->functions()[0], TD);
  EXPECT_EQ(S.total(), 0u);
  EXPECT_EQ(D.total(), 0u);
  EXPECT_EQ(Use.instrs()[0].opcode(), Opcode::LdSlot);
  EXPECT_EQ(printed(A.M), printed(*Ref));
}

TEST(SpillCleanup, MatchesDenseReference) {
  // Every backend's allocated code for fuzz programs 1-50 and the Table 3
  // modules at limits 8 and 4: the sparse pass must rewrite it to the same
  // bytes, with the same statistics, as the dense reference.
  unsigned Rewritten = 0;
  for (const auto &[Name, M] : exactnessInputs()) {
    for (unsigned Regs : {8u, 4u}) {
      TargetDesc TD = TargetDesc::alphaLike().withRegLimit(Regs, Regs);
      std::unique_ptr<Module> Base = cloneModule(*M);
      eliminateDeadCode(*Base, TD);
      for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
        std::unique_ptr<Module> Sparse = cloneModule(*Base);
        allocateModule(*Sparse, TD, K);
        std::unique_ptr<Module> Dense = cloneModule(*Sparse);
        SpillCleanupStats S = cleanupSpillCode(*Sparse, TD);
        SpillCleanupStats D;
        for (auto &F : Dense->functions()) {
          SpillCleanupStats One = dense::cleanup(*F, TD);
          D.LoadsDeleted += One.LoadsDeleted;
          D.LoadsToMoves += One.LoadsToMoves;
          D.StoresDeleted += One.StoresDeleted;
        }
        std::string Where =
            Name + " " + allocatorName(K) + " r" + std::to_string(Regs);
        EXPECT_EQ(S.LoadsDeleted, D.LoadsDeleted) << Where;
        EXPECT_EQ(S.LoadsToMoves, D.LoadsToMoves) << Where;
        EXPECT_EQ(S.StoresDeleted, D.StoresDeleted) << Where;
        EXPECT_TRUE(printed(*Sparse) == printed(*Dense)) << Where;
        Rewritten += S.total();
      }
    }
  }
  EXPECT_GT(Rewritten, 0u);
}

TEST(AllocatorTail, ScanThenTailMatchesAllocateFunction) {
  // allocateFunction is the scan followed by finishAllocation: allocating
  // with the tail off and then finishing must print the same bytes, for
  // every backend, with the spill cleanup off and on.
  for (const auto &[Name, M] : exactnessInputs()) {
    for (unsigned Regs : {8u, 4u}) {
      TargetDesc TD = TargetDesc::alphaLike().withRegLimit(Regs, Regs);
      std::unique_ptr<Module> Base = cloneModule(*M);
      eliminateDeadCode(*Base, TD);
      for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
        for (bool Cleanup : {false, true}) {
          AllocOptions AO;
          AO.SpillCleanup = Cleanup;
          AllocOptions ScanOnly;
          ScanOnly.RunPeephole = false;
          ScanOnly.CalleeSaves = false;
          std::unique_ptr<Module> Whole = cloneModule(*Base);
          std::unique_ptr<Module> Split = cloneModule(*Base);
          for (unsigned F = 0; F < Base->numFunctions(); ++F) {
            allocateFunction(Whole->function(F), TD, K, AO);
            allocateFunction(Split->function(F), TD, K, ScanOnly);
            finishAllocation(Split->function(F), TD, AO);
          }
          EXPECT_TRUE(printed(*Whole) == printed(*Split))
              << Name << " " << allocatorName(K) << " r" << Regs
              << (Cleanup ? " cleanup" : "");
        }
      }
    }
  }
}

// Property: the cleanup never changes observable behaviour, and never
// increases the dynamic instruction count.
TEST(SpillCleanup, PreservesSemanticsOnWorkloads) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (const char *Name : {"fpppp", "wc", "doduc", "m88ksim"}) {
    auto Base = buildWorkload(Name);
    compileModule(*Base, TD, AllocatorKind::SecondChanceBinpack);
    RunResult BaseRun = runAllocated(*Base, TD);
    ASSERT_TRUE(BaseRun.Ok);

    auto Cleaned = buildWorkload(Name);
    AllocOptions Opts;
    Opts.SpillCleanup = true;
    compileModule(*Cleaned, TD, AllocatorKind::SecondChanceBinpack, Opts);
    ASSERT_TRUE(checkAllocated(*Cleaned).empty());
    RunResult CleanRun = runAllocated(*Cleaned, TD);
    ASSERT_TRUE(CleanRun.Ok) << Name << ": " << CleanRun.Error;
    EXPECT_EQ(BaseRun.Output, CleanRun.Output) << Name;
    EXPECT_LE(CleanRun.Stats.Total, BaseRun.Stats.Total) << Name;
  }
}

TEST(SpillCleanup, PreservesSemanticsOnRandomPrograms) {
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(6, 6);
  for (uint64_t Seed = 50; Seed < 62; ++Seed) {
    auto RefM = buildRandomProgram(Seed);
    RunResult Ref = runReference(*RefM, TD);
    ASSERT_TRUE(Ref.Ok);
    for (AllocatorKind K : {AllocatorKind::SecondChanceBinpack,
                            AllocatorKind::GraphColoring,
                            AllocatorKind::TwoPassBinpack}) {
      auto M = buildRandomProgram(Seed);
      AllocOptions Opts;
      Opts.SpillCleanup = true;
      compileModule(*M, TD, K, Opts);
      RunResult Got = runAllocated(*M, TD);
      ASSERT_TRUE(Got.Ok) << "seed " << Seed << " " << allocatorName(K)
                          << ": " << Got.Error;
      EXPECT_EQ(Ref.Output, Got.Output)
          << "seed " << Seed << " " << allocatorName(K);
    }
  }
}

} // namespace
