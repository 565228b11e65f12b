//===- check/Verifier.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two phases per function.
//
// Phase 1 (matching): the allocated code must be the original instruction
// stream in original order, with virtual registers rewritten to physical
// registers, spill code (SpillKind-tagged) interleaved, and two deletions
// permitted: Nops, and register moves the peephole removed because source
// and destination received the same register. Blocks appended beyond the
// original block count must be resolution blocks created by edge splitting
// (tagged code plus one unconditional branch), and every branch target must
// reach the original successor through the split chain.
//
// Phase 2 (dataflow): a forward must-analysis over the allocated CFG maps
// every location (physical register or frame slot) to the set of original
// values it currently holds, kept as a sorted list of (value, location)
// facts. The matching from phase 1 tells the analysis which original value
// every matched operand demands.
//
//===----------------------------------------------------------------------===//

#include "check/Verifier.h"

#include "analysis/Order.h"
#include "ir/Module.h"
#include "obs/DecisionLog.h"

#include <algorithm>
#include <array>
#include <deque>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

const char *lsra::check::allocErrorKindName(AllocErrorKind K) {
  switch (K) {
  case AllocErrorKind::Structural:
    return "structural";
  case AllocErrorKind::UnresolvedEdge:
    return "unresolved-edge";
  case AllocErrorKind::ClobberedAcrossCall:
    return "clobbered-across-call";
  case AllocErrorKind::StaleAfterEvict:
    return "stale-after-evict";
  case AllocErrorKind::WrongSlot:
    return "wrong-slot";
  case AllocErrorKind::LostValue:
    return "lost-value";
  }
  return "?";
}

std::string AllocError::str() const {
  std::ostringstream OS;
  OS << allocErrorKindName(Kind) << " at " << Func;
  if (Block != NoInfo) {
    OS << ":b" << Block;
    if (InstrIdx != NoInfo)
      OS << "[" << InstrIdx << "]";
  }
  OS << ": " << Detail;
  bool Paren = false;
  auto Sep = [&] {
    OS << (Paren ? ", " : " (");
    Paren = true;
  };
  if (VReg != NoInfo) {
    Sep();
    OS << "temp=v" << VReg;
  }
  if (PReg != NoInfo) {
    Sep();
    OS << "reg=" << obs::pregDisplayName(PReg);
  }
  if (Pos != NoInfo) {
    Sep();
    OS << "pos=" << Pos;
  }
  if (Paren)
    OS << ")";
  return OS.str();
}

std::string VerifyAllocResult::str() const {
  std::ostringstream OS;
  for (unsigned I = 0; I < Errors.size(); ++I) {
    if (I)
      OS << "\n";
    OS << Errors[I].str();
  }
  return OS.str();
}

namespace {

constexpr unsigned MaxErrorsPerFunction = 32;

/// What last wrote a physical register; used only to classify failures.
struct Prov {
  enum Kind : uint8_t {
    Top,         ///< unvisited (meet identity)
    Entry,       ///< untouched since function entry
    Def,         ///< a matched instruction's definition
    SpillMove,   ///< an allocator-inserted register move
    LoadSlot,    ///< an allocator-inserted reload from Slot
    CallClobber, ///< the caller-saved clobber of a call
    Unknown,     ///< paths disagree
  };
  Kind K = Top;
  unsigned Slot = NoInfo;

  bool meet(const Prov &O) {
    if (O.K == Top)
      return false;
    if (K == Top) {
      *this = O;
      return true;
    }
    if (K == O.K && Slot == O.Slot)
      return false;
    if (K == Prov::Unknown)
      return false;
    K = Prov::Unknown;
    Slot = NoInfo;
    return true;
  }
};

/// One abstract fact, "location L holds value V", packed as V << 32 | L so
/// that sorting orders facts by value, then location.
using Fact = uint64_t;

Fact fact(unsigned V, unsigned L) { return (uint64_t(V) << 32) | L; }
unsigned factValue(Fact F) { return unsigned(F >> 32); }
unsigned factLoc(Fact F) { return unsigned(F); }

/// Merge the sorted \p Add into the sorted \p Into (disjoint lists).
void mergeFacts(std::vector<Fact> &Into, const std::vector<Fact> &Add) {
  size_t I = Into.size(), J = Add.size();
  Into.resize(I + J);
  for (size_t K = Into.size(); J > 0;)
    Into[--K] = I > 0 && Into[I - 1] > Add[J - 1] ? Into[--I] : Add[--J];
}

/// Abstract machine state: which locations hold which values.
/// Locations: [0, NumPRegs) physical registers, NumPRegs + S frame slots.
/// Values: [0, NumV) original virtual registers, NumV + P the "convention
/// value" sentinel of physical register P.
///
/// The state is sized by its facts, not by locations x values: a sorted list
/// of (value, location) pairs, so one value's locations are contiguous and
/// in location order. Reachable code holds a few dozen facts per block. The
/// meet identity (Top: every location holds every value) is a flag; only an
/// unreachable block is ever transferred from it, and there every location
/// starts co-finite. Co-finite locations are listed in TopLocs, and for them
/// the facts list the values they do *not* hold.
struct State {
  std::vector<Fact> Facts;
  std::vector<unsigned> TopLocs; ///< sorted co-finite locations
  bool Top = true;
  std::array<Prov, NumPRegs> RegProv;

  /// Make the meet identity explicit over \p NumLocs locations.
  void expandTop(unsigned NumLocs) {
    Top = false;
    Facts.clear();
    TopLocs.resize(NumLocs);
    for (unsigned L = 0; L < NumLocs; ++L)
      TopLocs[L] = L;
  }

  bool isTopLoc(unsigned L) const {
    return !TopLocs.empty() &&
           std::binary_search(TopLocs.begin(), TopLocs.end(), L);
  }

  bool holds(unsigned L, unsigned V) const {
    return std::binary_search(Facts.begin(), Facts.end(), fact(V, L)) !=
           isTopLoc(L);
  }

  /// Call \p Fn(L) for every location L holding \p V, in location order.
  template <typename FnT> void forEachHolder(unsigned V, FnT Fn) const {
    auto It = std::lower_bound(Facts.begin(), Facts.end(), fact(V, 0));
    auto End = std::lower_bound(It, Facts.end(), fact(V, 0) + (1ull << 32));
    auto T = TopLocs.begin();
    while (It != End || T != TopLocs.end()) {
      if (T == TopLocs.end() || (It != End && factLoc(*It) < *T))
        Fn(factLoc(*It++)); // a finite location's fact
      else if (It == End || *T < factLoc(*It))
        Fn(*T++); // a co-finite location that does not exclude V
      else
        ++It, ++T; // a co-finite location excluding V
    }
  }

  /// L now holds V (and whatever else it held).
  void add(unsigned L, unsigned V) {
    Fact F = fact(V, L);
    auto It = std::lower_bound(Facts.begin(), Facts.end(), F);
    bool Present = It != Facts.end() && *It == F;
    if (isTopLoc(L)) {
      if (Present)
        Facts.erase(It);
    } else if (!Present) {
      Facts.insert(It, F);
    }
  }

  /// V is held nowhere.
  void kill(unsigned V) {
    auto Lo = std::lower_bound(Facts.begin(), Facts.end(), fact(V, 0));
    auto Hi = std::lower_bound(Lo, Facts.end(), fact(V, 0) + (1ull << 32));
    Lo = Facts.erase(Lo, Hi);
    if (TopLocs.empty())
      return;
    size_t At = Lo - Facts.begin();
    Facts.insert(Lo, TopLocs.size(), 0);
    for (unsigned L : TopLocs)
      Facts[At++] = fact(V, L);
  }

  /// L holds nothing.
  void clear(unsigned L) {
    Facts.erase(std::remove_if(Facts.begin(), Facts.end(),
                               [L](Fact F) { return factLoc(F) == L; }),
                Facts.end());
    auto T = std::lower_bound(TopLocs.begin(), TopLocs.end(), L);
    if (T != TopLocs.end() && *T == L)
      TopLocs.erase(T);
  }

  /// D now holds exactly what S holds. \p Tmp is a work buffer.
  void copy(unsigned D, unsigned S, std::vector<Fact> &Tmp) {
    if (D == S)
      return;
    Tmp.clear();
    size_t W = 0;
    for (size_t R = 0; R < Facts.size(); ++R) {
      Fact F = Facts[R];
      if (factLoc(F) == S)
        Tmp.push_back(fact(factValue(F), D));
      if (factLoc(F) != D)
        Facts[W++] = F;
    }
    Facts.resize(W);
    mergeFacts(Facts, Tmp);
    bool STop = isTopLoc(S);
    auto T = std::lower_bound(TopLocs.begin(), TopLocs.end(), D);
    bool DTop = T != TopLocs.end() && *T == D;
    if (STop && !DTop)
      TopLocs.insert(T, D);
    else if (!STop && DTop)
      TopLocs.erase(T);
  }

  /// Intersect with \p O. \p Tmp is a work buffer.
  void meet(const State &O, std::vector<Fact> &Tmp) {
    if (O.Top)
      return;
    if (Top) {
      *this = O;
      return;
    }
    if (TopLocs.empty() && O.TopLocs.empty()) {
      size_t W = 0, J = 0;
      for (size_t I = 0; I < Facts.size(); ++I) {
        while (J < O.Facts.size() && O.Facts[J] < Facts[I])
          ++J;
        if (J < O.Facts.size() && O.Facts[J] == Facts[I])
          Facts[W++] = Facts[I];
      }
      Facts.resize(W);
    } else {
      // A location stays co-finite only if it is co-finite on both sides;
      // a fact is listed when "holds on both sides" differs from that.
      Tmp.clear();
      size_t I = 0, J = 0;
      while (I < Facts.size() || J < O.Facts.size()) {
        bool InA = J == O.Facts.size() ||
                   (I < Facts.size() && Facts[I] <= O.Facts[J]);
        bool InB = I == Facts.size() ||
                   (J < O.Facts.size() && O.Facts[J] <= Facts[I]);
        Fact F = InA ? Facts[I++] : O.Facts[J];
        if (InB)
          ++J;
        bool TA = isTopLoc(factLoc(F)), TB = O.isTopLoc(factLoc(F));
        if (((InA != TA) && (InB != TB)) != (TA && TB))
          Tmp.push_back(F);
      }
      TopLocs.erase(std::remove_if(TopLocs.begin(), TopLocs.end(),
                                   [&O](unsigned L) { return !O.isTopLoc(L); }),
                    TopLocs.end());
      Facts.swap(Tmp);
    }
    for (unsigned P = 0; P < NumPRegs; ++P)
      RegProv[P].meet(O.RegProv[P]);
  }

  bool operator==(const State &O) const {
    if (Top != O.Top || Facts != O.Facts || TopLocs != O.TopLocs)
      return false;
    for (unsigned P = 0; P < NumPRegs; ++P)
      if (RegProv[P].K != O.RegProv[P].K || RegProv[P].Slot != O.RegProv[P].Slot)
        return false;
    return true;
  }
};

/// One step of the interleaved allocated/original walk of a block.
///
/// Register moves are deliberately NOT paired between the two programs:
/// the allocator may coalesce any original move away, implement it purely
/// as spill traffic, or leave it as a physical move, and a structural
/// matcher cannot tell which allocated move implements which original one
/// (two moves with the same source are indistinguishable). Instead every
/// allocated untagged move is a machine copy event (its exact semantics),
/// every original move is a relabel event ("dst's value is now src's
/// value"), and only non-move instructions anchor the two streams 1:1.
/// Between anchors, machine events run first, then relabels — so the state
/// is checked exactly where it matters, at the next real instruction.
struct Event {
  enum Kind : uint8_t {
    SpillCode, ///< allocator-tagged spill/resolve instruction at AllocIdx
    AllocCopy, ///< untagged allocated register move at AllocIdx
    Matched,   ///< AllocIdx is the allocation of original OrigIdx
    OrigMove,  ///< original reg move at OrigIdx (relabel; no pairing)
  };
  Kind K;
  unsigned AllocIdx = NoInfo;
  unsigned OrigIdx = NoInfo;
};

class FunctionVerifier {
public:
  FunctionVerifier(const Function &Orig, const Function &Alloc,
                   const TargetDesc &TD, VerifyAllocResult &R)
      : Orig(Orig), Alloc(Alloc), TD(TD), R(R), ON(Orig) {}

  void run();

private:
  const Function &Orig;
  const Function &Alloc;
  const TargetDesc &TD;
  VerifyAllocResult &R;
  Numbering ON; ///< original linear positions (decision-log cross-reference)

  unsigned NumV = 0, NumLocs = 0;
  std::vector<Fact> FactBuf;        ///< State::copy/meet work list
  std::vector<unsigned> Holders;    ///< transferOrigMove work list
  std::vector<unsigned> SplitTarget; ///< resolveTarget per allocated block
  std::vector<std::vector<Event>> Events;
  bool StructuralFailure = false;
  unsigned ErrorCount = 0;

  // --- error helpers -----------------------------------------------------

  AllocError &addError(AllocErrorKind K, unsigned B, unsigned I,
                       std::string Detail) {
    R.Errors.push_back(AllocError());
    AllocError &E = R.Errors.back();
    E.Kind = K;
    E.Func = Alloc.name();
    E.Block = B;
    E.InstrIdx = I;
    E.Detail = std::move(Detail);
    ++ErrorCount;
    return E;
  }

  bool tooManyErrors() const { return ErrorCount >= MaxErrorsPerFunction; }

  // --- phase 1: structure ------------------------------------------------

  bool computeSplitTargets();
  void checkSplitBlock(unsigned B);
  void checkSplitReachability();
  bool matchBlock(unsigned B);
  bool operandMatches(const Operand &O, const Operand &A) const;
  bool instrMatches(const Instr &OI, const Instr &AI) const;

  // --- phase 2: dataflow -------------------------------------------------

  unsigned valueOf(const Operand &O) const {
    return O.isVReg() ? O.vregId() : NumV + O.pregId();
  }

  void entryState(State &S) const {
    S.Top = false;
    S.Facts.clear();
    for (unsigned P = 0; P < NumPRegs; ++P) {
      S.Facts.push_back(fact(NumV + P, P));
      S.RegProv[P].K = Prov::Entry;
    }
  }

  void transferBlock(unsigned B, State &S, bool Report);
  void transferSpill(const Instr &AI, State &S);
  void transferOrigMove(const Instr &OI, State &S, bool Report, unsigned B,
                        unsigned OrigIdx);
  void transferMatched(const Instr &OI, const Instr &AI, State &S, bool Report,
                       unsigned B, unsigned AllocIdx, unsigned OrigIdx);
  void checkUse(const State &S, unsigned Val, unsigned P, bool Report,
                unsigned B, unsigned AllocIdx, unsigned Pos);
  void solve();
};

bool FunctionVerifier::computeSplitTargets() {
  unsigned NB = Alloc.numBlocks();
  unsigned OrigNB = Orig.numBlocks();
  SplitTarget.assign(NB, NoInfo);
  bool Ok = true;
  for (unsigned B = 0; B < NB; ++B) {
    unsigned Cur = B;
    unsigned Steps = 0;
    while (Cur >= OrigNB) {
      const Block &Blk = Alloc.block(Cur);
      if (!Blk.hasTerminator() || Blk.terminator().opcode() != Opcode::Br ||
          ++Steps > NB) {
        addError(AllocErrorKind::UnresolvedEdge, B, NoInfo,
                 "resolution block chain from b" + std::to_string(B) +
                     " does not reach an original block");
        Cur = NoInfo;
        Ok = false;
        break;
      }
      Cur = Blk.terminator().op(0).labelBlock();
    }
    SplitTarget[B] = Cur;
  }
  return Ok;
}

void FunctionVerifier::checkSplitBlock(unsigned B) {
  const Block &Blk = Alloc.block(B);
  for (unsigned I = 0; I < Blk.size(); ++I) {
    const Instr &AI = Blk.instrs()[I];
    bool Last = I + 1 == Blk.size();
    if (Last) {
      if (AI.opcode() != Opcode::Br || AI.Spill != SpillKind::None)
        addError(AllocErrorKind::UnresolvedEdge, B, I,
                 "resolution block must end in a plain unconditional branch");
      continue;
    }
    if (AI.Spill != SpillKind::ResolveLoad &&
        AI.Spill != SpillKind::ResolveStore &&
        AI.Spill != SpillKind::ResolveMove)
      addError(AllocErrorKind::UnresolvedEdge, B, I,
               "non-resolution code in a split-edge block");
  }
}

void FunctionVerifier::checkSplitReachability() {
  unsigned NB = Alloc.numBlocks();
  std::vector<bool> Seen(NB, false);
  std::deque<unsigned> Work{0};
  Seen[0] = true;
  while (!Work.empty()) {
    unsigned B = Work.front();
    Work.pop_front();
    const Block &Blk = Alloc.block(B);
    if (!Blk.hasTerminator())
      continue;
    for (unsigned S : Blk.successors())
      if (S < NB && !Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  for (unsigned B = Orig.numBlocks(); B < NB; ++B)
    if (!Seen[B])
      addError(AllocErrorKind::UnresolvedEdge, B, NoInfo,
               "resolution block is unreachable (edge split lost its edge)");
}

bool FunctionVerifier::operandMatches(const Operand &O,
                                      const Operand &A) const {
  switch (O.kind()) {
  case Operand::Kind::VReg:
    return A.isPReg() && pregClass(A.pregId()) == Orig.vregClass(O.vregId()) &&
           TD.isAllocatable(A.pregId());
  case Operand::Kind::Label:
    return A.isLabel() && A.labelBlock() < SplitTarget.size() &&
           SplitTarget[A.labelBlock()] == O.labelBlock();
  default:
    return O == A;
  }
}

bool FunctionVerifier::instrMatches(const Instr &OI, const Instr &AI) const {
  if (OI.opcode() != AI.opcode() || AI.Spill != SpillKind::None)
    return false;
  if (OI.CallIntArgs != AI.CallIntArgs || OI.CallFpArgs != AI.CallFpArgs ||
      OI.CallRet != AI.CallRet)
    return false;
  for (unsigned I = 0; I < 3; ++I)
    if (!operandMatches(OI.op(I), AI.op(I)))
      return false;
  return true;
}

bool FunctionVerifier::matchBlock(unsigned B) {
  const Block &OB = Orig.block(B);
  const Block &AB = Alloc.block(B);
  std::vector<Event> &Ev = Events[B];

  // Consume allocated instructions up to (not including) the next anchor
  // candidate: tagged spill code and untagged register moves become machine
  // events, Nops disappear.
  unsigned AIdx = 0;
  auto consumeAllocGap = [&]() -> bool {
    for (; AIdx < AB.size(); ++AIdx) {
      const Instr &AI = AB.instrs()[AIdx];
      if (AI.Spill != SpillKind::None) {
        // Shape-check the spill code here so the dataflow can rely on it.
        bool Good = false;
        switch (AI.opcode()) {
        case Opcode::LdSlot:
        case Opcode::FLdSlot:
        case Opcode::StSlot:
        case Opcode::FStSlot:
          Good = AI.op(0).isPReg() && AI.op(1).isSlot() &&
                 AI.op(1).slotId() < Alloc.numSlots();
          break;
        case Opcode::Mov:
        case Opcode::FMov:
          Good = AI.op(0).isPReg() && AI.op(1).isPReg();
          break;
        default:
          break;
        }
        if (!Good) {
          addError(AllocErrorKind::Structural, B, AIdx,
                   "malformed spill instruction");
          return false;
        }
        Ev.push_back({Event::SpillCode, AIdx, NoInfo});
        continue;
      }
      if (AI.opcode() == Opcode::Nop)
        continue;
      if (AI.isRegMove()) {
        if (!AI.op(0).isPReg() || !AI.op(1).isPReg()) {
          addError(AllocErrorKind::Structural, B, AIdx,
                   "allocated register move still uses a virtual register");
          return false;
        }
        Ev.push_back({Event::AllocCopy, AIdx, NoInfo});
        continue;
      }
      return true; // anchor candidate
    }
    return true;
  };

  for (unsigned OrigIdx = 0; OrigIdx < OB.size(); ++OrigIdx) {
    const Instr &OI = OB.instrs()[OrigIdx];
    if (OI.opcode() == Opcode::Nop)
      continue;
    if (OI.isRegMove()) {
      // Relabel events queue in original order; consumeAllocGap emits the
      // machine events of the same gap before the anchor flushes them.
      Ev.push_back({Event::OrigMove, NoInfo, OrigIdx});
      continue;
    }
    // Anchor: the next non-move allocated instruction must be this one's
    // allocation. Within the gap before it, machine events (spill code,
    // physical moves) are emitted first and the queued relabels after —
    // the abstract state is then checked exactly at the anchor, which is
    // the point where the machine contract has to hold.
    std::vector<Event> Relabels;
    while (!Ev.empty() && Ev.back().K == Event::OrigMove) {
      Relabels.push_back(Ev.back());
      Ev.pop_back();
    }
    if (!consumeAllocGap())
      return false;
    for (auto It = Relabels.rbegin(); It != Relabels.rend(); ++It)
      Ev.push_back(*It);
    if (AIdx >= AB.size()) {
      addError(AllocErrorKind::Structural, B, AB.size() ? AB.size() - 1 : 0,
               std::string("original instruction '") +
                   opcodeName(OI.opcode()) + "' (index " +
                   std::to_string(OrigIdx) + ") is missing from the "
                   "allocated block");
      return false;
    }
    const Instr &AI = AB.instrs()[AIdx];
    if (!instrMatches(OI, AI)) {
      AllocErrorKind K = OI.isTerminator() && AI.isTerminator()
                             ? AllocErrorKind::UnresolvedEdge
                             : AllocErrorKind::Structural;
      addError(K, B, AIdx,
               std::string("allocated instruction does not correspond to "
                           "original '") +
                   opcodeName(OI.opcode()) + "' (original index " +
                   std::to_string(OrigIdx) + ")");
      return false;
    }
    Ev.push_back({Event::Matched, AIdx, OrigIdx});
    ++AIdx;
  }
  // Trailing relabels stay queued; drain any remaining allocated tail.
  {
    std::vector<Event> Relabels;
    while (!Ev.empty() && Ev.back().K == Event::OrigMove) {
      Relabels.push_back(Ev.back());
      Ev.pop_back();
    }
    if (!consumeAllocGap())
      return false;
    for (auto It = Relabels.rbegin(); It != Relabels.rend(); ++It)
      Ev.push_back(*It);
  }
  if (AIdx < AB.size()) {
    addError(AllocErrorKind::Structural, B, AIdx,
             "allocated instruction beyond the end of the original block");
    return false;
  }
  return true;
}

void FunctionVerifier::checkUse(const State &S, unsigned Val, unsigned P,
                                bool Report, unsigned B, unsigned AllocIdx,
                                unsigned Pos) {
  if (!Report || tooManyErrors())
    return;
  if (S.holds(P, Val))
    return;
  // Classify: what does P hold instead, and where does the value live?
  const Prov &PV = S.RegProv[P];
  bool Elsewhere = false;
  unsigned HomeSlot = NoInfo;
  S.forEachHolder(Val, [&](unsigned L) {
    Elsewhere = true;
    if (L >= NumPRegs && HomeSlot == NoInfo)
      HomeSlot = L - NumPRegs;
  });
  AllocErrorKind K;
  std::string Why;
  if (PV.K == Prov::CallClobber) {
    K = AllocErrorKind::ClobberedAcrossCall;
    Why = "value read from a register a call clobbered";
  } else if (PV.K == Prov::LoadSlot && Elsewhere && HomeSlot != NoInfo &&
             HomeSlot != PV.Slot) {
    K = AllocErrorKind::WrongSlot;
    Why = "register was reloaded from slot " + std::to_string(PV.Slot) +
          " but the value lives in slot " + std::to_string(HomeSlot);
  } else if (Elsewhere) {
    K = AllocErrorKind::StaleAfterEvict;
    Why = "register no longer holds the value (it lives ";
    Why += HomeSlot != NoInfo ? "in slot " + std::to_string(HomeSlot)
                              : "in another register";
    Why += ")";
  } else {
    K = AllocErrorKind::LostValue;
    Why = "value is in no register or slot on some path";
  }
  AllocError &E = addError(K, B, AllocIdx, "use of " +
                                               (Val < NumV
                                                    ? "v" + std::to_string(Val)
                                                    : "the convention value "
                                                      "of " +
                                                          obs::pregDisplayName(
                                                              Val - NumV)) +
                                               ": " + Why);
  if (Val < NumV)
    E.VReg = Val;
  E.PReg = P;
  E.Pos = Pos;
}

void FunctionVerifier::transferSpill(const Instr &AI, State &S) {
  switch (AI.opcode()) {
  case Opcode::LdSlot:
  case Opcode::FLdSlot: {
    unsigned D = AI.op(0).pregId();
    unsigned Slot = AI.op(1).slotId();
    S.copy(D, NumPRegs + Slot, FactBuf);
    S.RegProv[D] = {Prov::LoadSlot, Slot};
    return;
  }
  case Opcode::StSlot:
  case Opcode::FStSlot:
    S.copy(NumPRegs + AI.op(1).slotId(), AI.op(0).pregId(), FactBuf);
    return;
  case Opcode::Mov:
  case Opcode::FMov: {
    unsigned D = AI.op(0).pregId();
    S.copy(D, AI.op(1).pregId(), FactBuf);
    S.RegProv[D] = {Prov::SpillMove, NoInfo};
    return;
  }
  default:
    return; // flagged structurally already
  }
}

void FunctionVerifier::transferOrigMove(const Instr &OI, State &S,
                                        bool Report, unsigned B,
                                        unsigned OrigIdx) {
  // Original `dst = src` relabel: after the copy, dst's value is src's
  // value, so every location that holds src's value holds dst's too. The
  // machine-side implementation (a physical move, spill traffic, or nothing
  // at all when coalesced) has already been applied as machine events. If
  // the destination is a fixed register, the register really must hold the
  // source value by the end of the gap this move sits in.
  unsigned SrcVal = valueOf(OI.op(1));
  const Operand &Dst = OI.op(0);
  unsigned Pos = Numbering::usePos(ON.instrIndex(B, OrigIdx));
  if (Dst.isPReg()) {
    checkUse(S, SrcVal, Dst.pregId(), Report, B, NoInfo, Pos);
    unsigned DVal = NumV + Dst.pregId();
    S.kill(DVal);
    S.add(Dst.pregId(), DVal);
    return;
  }
  unsigned DVal = Dst.vregId();
  S.kill(DVal);
  Holders.clear();
  S.forEachHolder(SrcVal, [&](unsigned L) { Holders.push_back(L); });
  for (unsigned L : Holders)
    S.add(L, DVal);
}

void FunctionVerifier::transferMatched(const Instr &OI, const Instr &AI,
                                       State &S, bool Report, unsigned B,
                                       unsigned AllocIdx, unsigned OrigIdx) {
  unsigned Idx = ON.instrIndex(B, OrigIdx);
  // 1. Uses read the pre-state.
  unsigned D = OI.numDefSlots();
  for (unsigned U = 0; U < OI.numUseSlots(); ++U) {
    const Operand &O = OI.op(D + U);
    if (!O.isReg())
      continue;
    checkUse(S, valueOf(O), AI.op(D + U).pregId(), Report, B, AllocIdx,
             Numbering::usePos(Idx));
  }
  if (OI.isCall()) {
    for (unsigned A = 0; A < OI.CallIntArgs; ++A) {
      unsigned P = TargetDesc::intArgReg(A);
      checkUse(S, NumV + P, P, Report, B, AllocIdx, Numbering::usePos(Idx));
    }
    for (unsigned A = 0; A < OI.CallFpArgs; ++A) {
      unsigned P = TargetDesc::fpArgReg(A);
      checkUse(S, NumV + P, P, Report, B, AllocIdx, Numbering::usePos(Idx));
    }
    // 2. The caller-saved set dies.
    forEachClobberedReg(AI, TD, [&](unsigned P) {
      S.clear(P);
      S.RegProv[P] = {Prov::CallClobber, NoInfo};
    });
    if (OI.CallRet != CallRetKind::None) {
      unsigned P = TargetDesc::retReg(
          OI.CallRet == CallRetKind::Int ? RegClass::Int : RegClass::Float);
      S.kill(NumV + P);
      S.clear(P);
      S.add(P, NumV + P);
      S.RegProv[P] = {Prov::Def, NoInfo};
    }
    return;
  }
  // Untagged slot stores are program stores to a local frame slot.
  if (OI.opcode() == Opcode::StSlot || OI.opcode() == Opcode::FStSlot) {
    S.copy(NumPRegs + AI.op(1).slotId(), AI.op(0).pregId(), FactBuf);
    return;
  }
  // 3. The definition: the defined value dies everywhere, then lives in the
  // destination register. Slot loads additionally keep the slot's set (the
  // loaded bits equal the slot's bits).
  if (D == 1) {
    unsigned DVal = valueOf(OI.op(0));
    unsigned DP = AI.op(0).pregId();
    S.kill(DVal);
    if (OI.opcode() == Opcode::LdSlot || OI.opcode() == Opcode::FLdSlot)
      S.copy(DP, NumPRegs + AI.op(1).slotId(), FactBuf);
    else
      S.clear(DP);
    S.add(DP, DVal);
    S.RegProv[DP] = {Prov::Def, NoInfo};
  }
}

void FunctionVerifier::transferBlock(unsigned B, State &S, bool Report) {
  if (S.Top) // unreachable, and so are all its predecessors
    S.expandTop(NumLocs);
  if (B >= Orig.numBlocks()) {
    for (const Instr &AI : Alloc.block(B).instrs())
      if (AI.Spill != SpillKind::None)
        transferSpill(AI, S);
    return;
  }
  const Block &AB = Alloc.block(B);
  const Block &OB = Orig.block(B);
  for (const Event &E : Events[B]) {
    switch (E.K) {
    case Event::SpillCode:
    case Event::AllocCopy: // untagged physical move: same machine semantics
      transferSpill(AB.instrs()[E.AllocIdx], S);
      break;
    case Event::OrigMove:
      transferOrigMove(OB.instrs()[E.OrigIdx], S, Report, B, E.OrigIdx);
      break;
    case Event::Matched:
      transferMatched(OB.instrs()[E.OrigIdx], AB.instrs()[E.AllocIdx], S,
                      Report, B, E.AllocIdx, E.OrigIdx);
      break;
    }
  }
}

void FunctionVerifier::solve() {
  unsigned NB = Alloc.numBlocks();
  std::vector<State> In(NB), Out(NB); // Top: the meet identity
  entryState(In[0]);

  auto Preds = Alloc.predecessors();
  std::vector<std::vector<unsigned>> Succs(NB);
  for (unsigned B = 0; B < NB; ++B)
    for (unsigned P : Preds[B])
      Succs[P].push_back(B);
  std::vector<unsigned> RPO = reversePostOrder(Alloc);
  std::vector<unsigned> RPOIndex(NB);
  for (unsigned I = 0; I < RPO.size(); ++I)
    RPOIndex[RPO[I]] = I;

  // Sweep in RPO, transferring every block once and then only the blocks
  // a predecessor's changed out-state reaches; a back edge to a pending
  // block costs another sweep.
  std::vector<bool> Pending(NB, true);
  State S;
  for (bool Again = true; Again;) {
    Again = false;
    for (unsigned B : RPO) {
      if (!Pending[B])
        continue;
      Pending[B] = false;
      // The entry block's in-state starts at the machine contract and still
      // meets its predecessors: a branch back to the entry block must agree
      // with the entry state on every location it relies on.
      for (unsigned P : Preds[B])
        In[B].meet(Out[P], FactBuf);
      S = In[B];
      transferBlock(B, S, /*Report=*/false);
      if (S == Out[B])
        continue;
      std::swap(Out[B], S);
      for (unsigned Succ : Succs[B]) {
        Pending[Succ] = true;
        Again |= RPOIndex[Succ] <= RPOIndex[B];
      }
    }
  }

  for (unsigned B = 0; B < NB && !tooManyErrors(); ++B) {
    S = In[B];
    transferBlock(B, S, /*Report=*/true);
  }
}

void FunctionVerifier::run() {
  NumV = Orig.numVRegs();
  NumLocs = NumPRegs + Alloc.numSlots();

  if (Alloc.numBlocks() < Orig.numBlocks()) {
    addError(AllocErrorKind::Structural, NoInfo, NoInfo,
             "allocated function has fewer blocks than the original");
    return;
  }
  if (!computeSplitTargets())
    return;
  for (unsigned B = Orig.numBlocks(); B < Alloc.numBlocks(); ++B)
    checkSplitBlock(B);
  checkSplitReachability();

  Events.assign(Orig.numBlocks(), {});
  bool MatchOk = true;
  for (unsigned B = 0; B < Orig.numBlocks(); ++B)
    MatchOk &= matchBlock(B);
  if (!MatchOk || !R.Errors.empty())
    return; // the dataflow needs a sound matching
  solve();
}

} // namespace

VerifyAllocResult lsra::check::verifyAllocation(const Function &Orig,
                                                const Function &Alloc,
                                                const TargetDesc &TD) {
  VerifyAllocResult R;
  FunctionVerifier(Orig, Alloc, TD, R).run();
  return R;
}

VerifyAllocResult lsra::check::verifyAllocation(const Module &Orig,
                                                const Module &Alloc,
                                                const TargetDesc &TD) {
  VerifyAllocResult R;
  if (Orig.numFunctions() != Alloc.numFunctions()) {
    AllocError E;
    E.Kind = AllocErrorKind::Structural;
    E.Func = "<module>";
    E.Detail = "function count changed during allocation";
    R.Errors.push_back(E);
    return R;
  }
  for (unsigned I = 0; I < Orig.numFunctions(); ++I) {
    VerifyAllocResult FR =
        verifyAllocation(Orig.function(I), Alloc.function(I), TD);
    R.Errors.insert(R.Errors.end(), FR.Errors.begin(), FR.Errors.end());
  }
  return R;
}
