//===- passes/SpillCleanup.cpp --------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Global forward availability analysis over (slot, register) facts: a fact
// "slot S is mirrored by register R" is generated by stores and loads,
// killed by writes to R (including call clobbers), and met by intersection
// at CFG joins. With the fixpoint in hand, each block is rewritten from
// its entry state: reloads whose value is already in the destination are
// deleted, reloads whose value lives in another register become moves
// (the paper's "loads and stores meet"), and duplicate stores disappear.
//
// The facts form a partial injection (a register mirrors at most one slot
// and a slot is mirrored by at most one register), so a dataflow state is
// a Top flag plus, for each register that some spill instruction names, the
// slot it mirrors. Each block's effect is summarised once: the registers it
// writes, the slots it records and the mirrors standing at its end. A sweep
// then costs a few word operations per block, and only blocks whose
// predecessors' outputs changed since their last visit are visited again.
//
//===----------------------------------------------------------------------===//

#include "passes/SpillCleanup.h"

#include <algorithm>
#include <array>
#include <vector>

using namespace lsra;

namespace {

constexpr unsigned NoReg = ~0u;
constexpr unsigned NoSlot = ~0u;

/// The mirror facts of a point in a block, viewed both ways: which slot a
/// register mirrors and which register mirrors a slot. Sized by the
/// function's slots once and cleared after each block walk.
class Mirror {
public:
  explicit Mirror(unsigned NumSlots) : SlotReg(NumSlots, NoReg) {
    RegSlot.fill(NoSlot);
  }

  unsigned regForSlot(unsigned S) const { return SlotReg[S]; }
  unsigned slotForReg(unsigned R) const { return RegSlot[R]; }

  void record(unsigned S, unsigned R) {
    invalidateReg(R);
    if (SlotReg[S] != NoReg)
      RegSlot[SlotReg[S]] = NoSlot;
    SlotReg[S] = R;
    RegSlot[R] = S;
  }

  void invalidateReg(unsigned R) {
    if (RegSlot[R] != NoSlot) {
      SlotReg[RegSlot[R]] = NoReg;
      RegSlot[R] = NoSlot;
    }
  }

  void clear() {
    for (unsigned &S : RegSlot)
      if (S != NoSlot) {
        SlotReg[S] = NoReg;
        S = NoSlot;
      }
  }

private:
  std::vector<unsigned> SlotReg;          // slot -> reg or NoReg
  std::array<unsigned, NumPRegs> RegSlot; // reg -> slot or NoSlot
};

bool isSlotOp(const Instr &I) {
  switch (I.opcode()) {
  case Opcode::StSlot:
  case Opcode::FStSlot:
  case Opcode::LdSlot:
  case Opcode::FLdSlot:
    return true;
  default:
    return false;
  }
}

/// Apply one instruction's effect on \p State (no rewriting); \p Kill sees
/// every register whose mirror the instruction ends.
template <typename KillFn>
void transfer(const Instr &I, const TargetDesc &TD, Mirror &State,
              KillFn &&Kill) {
  if (isSlotOp(I)) {
    Kill(I.op(0).pregId());
    State.record(I.op(1).slotId(), I.op(0).pregId());
    return;
  }
  forEachDefinedReg(I, [&](const Operand &Op) {
    if (Op.isPReg()) {
      Kill(Op.pregId());
      State.invalidateReg(Op.pregId());
    }
  });
  forEachClobberedReg(I, TD, [&](unsigned P) {
    Kill(P);
    State.invalidateReg(P);
  });
}

void transfer(const Instr &I, const TargetDesc &TD, Mirror &State) {
  transfer(I, TD, State, [](unsigned) {});
}

static_assert(NumPRegs <= 64, "a fact mask is one bit per register");

/// One block's effect on the facts: Out = In minus the facts on KillRegs
/// or on a slot in [SlotsBegin, SlotsEnd) of the kill-slot list, plus the
/// facts in [GenBegin, GenEnd) of the gen list.
struct BlockSummary {
  uint64_t KillRegs = 0;
  unsigned SlotsBegin = 0, SlotsEnd = 0;
  unsigned GenBegin = 0, GenEnd = 0;
};

/// A fact a block leaves standing at its end.
struct Gen {
  unsigned Reg;
  unsigned Slot;
};

/// The forward dataflow of one function. A state is a Top flag plus a
/// register -> slot row, valid where its fact mask has the register's bit.
class Availability {
public:
  Availability(const Function &F, const TargetDesc &TD, Mirror &M) {
    unsigned NumBlocks = F.numBlocks();
    Sums.resize(NumBlocks);
    for (unsigned B = 0; B < NumBlocks; ++B)
      summarise(F.block(B), TD, M, Sums[B]);
    InSlots.resize(size_t(NumBlocks) * NumPRegs);
    OutSlots.resize(size_t(NumBlocks) * NumPRegs);
    InHas.assign(NumBlocks, 0);
    OutHas.assign(NumBlocks, 0);
    InTop.assign(NumBlocks, 1);
    OutTop.assign(NumBlocks, 1);
    InTop[0] = 0; // entry: nothing available
  }

  /// Sweep the blocks in index order to a fixpoint, visiting a block only
  /// when it was never visited or a predecessor's output changed since its
  /// last visit; any other visit would reproduce its In and Out unchanged.
  void solve(const Function &F) {
    unsigned NumBlocks = F.numBlocks();
    auto Preds = F.predecessors();
    std::vector<uint8_t> Dirty(NumBlocks, 1);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned B = 0; B < NumBlocks; ++B) {
        if (!Dirty[B])
          continue;
        Dirty[B] = 0;
        if (B != 0)
          for (unsigned P : Preds[B])
            meetIn(B, P);
        if (!visit(B))
          continue;
        Changed = true;
        for (unsigned S : F.block(B).successors())
          Dirty[S] = 1;
      }
    }
  }

  /// Load the entry facts of block \p B into \p M (Top reads as nothing).
  void loadIn(unsigned B, Mirror &M) const {
    if (InTop[B])
      return;
    const unsigned *Row = inRow(B);
    for (uint64_t Bits = InHas[B]; Bits; Bits &= Bits - 1) {
      unsigned R = static_cast<unsigned>(__builtin_ctzll(Bits));
      M.record(Row[R], R);
    }
  }

private:
  unsigned *inRow(unsigned B) { return InSlots.data() + size_t(B) * NumPRegs; }
  const unsigned *inRow(unsigned B) const {
    return InSlots.data() + size_t(B) * NumPRegs;
  }
  unsigned *outRow(unsigned B) {
    return OutSlots.data() + size_t(B) * NumPRegs;
  }

  void summarise(const Block &Blk, const TargetDesc &TD, Mirror &M,
                 BlockSummary &Sum) {
    Sum.SlotsBegin = static_cast<unsigned>(KillSlots.size());
    for (const Instr &I : Blk.instrs()) {
      transfer(I, TD, M,
               [&](unsigned R) { Sum.KillRegs |= uint64_t(1) << R; });
      if (isSlotOp(I))
        KillSlots.push_back(I.op(1).slotId());
    }
    auto First = KillSlots.begin() + Sum.SlotsBegin;
    std::sort(First, KillSlots.end());
    KillSlots.erase(std::unique(First, KillSlots.end()), KillSlots.end());
    Sum.SlotsEnd = static_cast<unsigned>(KillSlots.size());
    Sum.GenBegin = static_cast<unsigned>(Gens.size());
    for (uint64_t Bits = Sum.KillRegs; Bits; Bits &= Bits - 1) {
      unsigned R = static_cast<unsigned>(__builtin_ctzll(Bits));
      if (M.slotForReg(R) != NoSlot)
        Gens.push_back({R, M.slotForReg(R)});
    }
    Sum.GenEnd = static_cast<unsigned>(Gens.size());
    M.clear();
  }

  /// In[B] = In[B] meet Out[P]; Top is the identity.
  void meetIn(unsigned B, unsigned P) {
    if (OutTop[P])
      return;
    if (InTop[B]) {
      std::copy(outRow(P), outRow(P) + NumPRegs, inRow(B));
      InHas[B] = OutHas[P];
      InTop[B] = 0;
      return;
    }
    InHas[B] = meetRow(inRow(B), InHas[B], outRow(P), OutHas[P]);
  }

  /// The facts of \p A (mask \p AHas) that \p B (mask \p BHas) shares.
  static uint64_t meetRow(const unsigned *A, uint64_t AHas,
                          const unsigned *B, uint64_t BHas) {
    uint64_t Has = AHas & BHas;
    for (uint64_t Bits = Has; Bits; Bits &= Bits - 1) {
      unsigned R = static_cast<unsigned>(__builtin_ctzll(Bits));
      if (A[R] != B[R])
        Has &= ~(uint64_t(1) << R);
    }
    return Has;
  }

  /// Push In[B] (Top read as nothing) through B's summary and meet the
  /// result into Out[B]; returns true if Out[B] changed.
  bool visit(unsigned B) {
    const BlockSummary &Sum = Sums[B];
    const unsigned *In = inRow(B);
    uint64_t Has = InTop[B] ? 0 : InHas[B] & ~Sum.KillRegs;
    for (uint64_t Bits = Has; Bits; Bits &= Bits - 1) {
      unsigned R = static_cast<unsigned>(__builtin_ctzll(Bits));
      Scratch[R] = In[R];
      if (std::binary_search(KillSlots.begin() + Sum.SlotsBegin,
                             KillSlots.begin() + Sum.SlotsEnd, In[R]))
        Has &= ~(uint64_t(1) << R);
    }
    for (unsigned G = Sum.GenBegin; G < Sum.GenEnd; ++G) {
      Scratch[Gens[G].Reg] = Gens[G].Slot;
      Has |= uint64_t(1) << Gens[G].Reg;
    }

    unsigned *Out = outRow(B);
    if (OutTop[B]) {
      std::copy(Scratch.begin(), Scratch.end(), Out);
      OutHas[B] = Has;
      OutTop[B] = 0;
      return true;
    }
    uint64_t Met = meetRow(Out, OutHas[B], Scratch.data(), Has);
    if (Met == OutHas[B])
      return false;
    OutHas[B] = Met;
    return true;
  }

  std::vector<BlockSummary> Sums;
  std::vector<unsigned> KillSlots; // each block's recorded slots, sorted
  std::vector<Gen> Gens;
  std::vector<unsigned> InSlots, OutSlots; // block x register -> slot
  std::vector<uint64_t> InHas, OutHas;     // block -> fact mask
  std::vector<uint8_t> InTop, OutTop;
  std::array<unsigned, NumPRegs> Scratch{};
};

} // namespace

SpillCleanupStats lsra::cleanupSpillCode(Function &F, const TargetDesc &TD) {
  SpillCleanupStats Stats;
  unsigned NumBlocks = F.numBlocks();
  unsigned NumSlots = F.numSlots();
  if (NumSlots == 0)
    return Stats;

  Mirror State(NumSlots);
  Availability Facts(F, TD, State);
  Facts.solve(F);

  // Rewrite each block from its entry state.
  std::vector<uint32_t> Kept;
  for (unsigned B = 0; B < NumBlocks; ++B) {
    Facts.loadIn(B, State);
    Block &Blk = F.block(B);
    Kept.clear();
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
        if (Avail != NoReg && pregClass(Avail) == pregClass(D)) {
          Instr Move(pregClass(D) == RegClass::Float ? Opcode::FMov
                                                     : Opcode::Mov,
                     Operand::preg(D), Operand::preg(Avail));
          Move.Spill = I.Spill == SpillKind::ResolveLoad
                           ? SpillKind::ResolveMove
                           : (I.Spill == SpillKind::EvictLoad
                                  ? SpillKind::EvictMove
                                  : I.Spill);
          State.record(S, D);
          I = Move; // 1:1 replacement keeps the instruction id
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
    State.clear();
  }
  return Stats;
}

SpillCleanupStats lsra::cleanupSpillCode(Module &M, const TargetDesc &TD) {
  SpillCleanupStats Total;
  for (auto &F : M.functions()) {
    SpillCleanupStats S = cleanupSpillCode(*F, TD);
    Total.LoadsDeleted += S.LoadsDeleted;
    Total.LoadsToMoves += S.LoadsToMoves;
    Total.StoresDeleted += S.StoresDeleted;
  }
  return Total;
}
