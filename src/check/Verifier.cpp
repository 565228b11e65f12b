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
// facts; a block's transfer reads them through a per-location index. The
// matching from phase 1 tells the analysis which original value every
// matched operand demands. Each transfer of a block also checks its uses;
// the errors of a block's last transfer, made on its final in-state, are
// its verdict.
//
//===----------------------------------------------------------------------===//

#include "check/Verifier.h"

#include "analysis/Order.h"
#include "ir/Module.h"
#include "obs/DecisionLog.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
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
  enum Kind : uint32_t {
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

  /// The meet with \p O, computed by selection so that a loop over all
  /// registers has no branches to mispredict.
  Prov meet(const Prov &O) const {
    Prov Disagree{Unknown, NoInfo};
    return O.K == Top ? *this : K == Top ? O : *this == O ? *this : Disagree;
  }

  bool operator==(const Prov &O) const { return K == O.K && Slot == O.Slot; }
};

/// Every physical register's provenance. Prov has no padding, so two arrays
/// are equal exactly when their bytes are.
using RegProvs = std::array<Prov, NumPRegs>;
static_assert(sizeof(Prov) == 2 * sizeof(uint32_t), "Prov must not pad");

bool sameProvs(const RegProvs &A, const RegProvs &B) {
  return std::memcmp(A.data(), B.data(), sizeof(RegProvs)) == 0;
}

/// One abstract fact, "location L holds value V", packed as V << 32 | L so
/// that sorting orders facts by value, then location.
using Fact = uint64_t;

Fact fact(unsigned V, unsigned L) { return (uint64_t(V) << 32) | L; }
unsigned factValue(Fact F) { return unsigned(F >> 32); }
unsigned factLoc(Fact F) { return unsigned(F); }

/// The contiguous run of the sorted \p Fs holding value \p V. The search
/// selects instead of branching, and a run is a few facts long.
std::span<const Fact> valueRun(const std::vector<Fact> &Fs, unsigned V) {
  const Fact *Lo = Fs.data(), *End = Fs.data() + Fs.size();
  Fact Key = fact(V, 0);
  for (size_t N = Fs.size(); N > 1;) {
    size_t Half = N / 2;
    Lo = Lo[Half - 1] < Key ? Lo + Half : Lo;
    N -= Half;
  }
  if (Lo != End && *Lo < Key)
    ++Lo;
  const Fact *Hi = Lo;
  while (Hi != End && factValue(*Hi) == V)
    ++Hi;
  return {Lo, Hi};
}

/// Abstract machine state: which locations hold which values.
/// Locations: [0, NumPRegs) physical registers, NumPRegs + S frame slots.
/// Values: [0, NumV) original virtual registers, NumV + P the "convention
/// value" sentinel of physical register P.
///
/// The state is sized by its facts, not by locations x values: a sorted list
/// of (value, location) pairs, so one value's locations are contiguous and
/// in location order. Reachable code holds a few dozen facts per block. The
/// meet identity (Top: every location holds every value) is a flag; an
/// unreachable block is transferred from it, and there every location
/// starts co-finite. Co-finite locations are listed in TopLocs, and for them
/// the facts list the values they do *not* hold.
///
/// Blocks store their in- and out-states in this form; a transfer reads its
/// in-state through a BlockState and writes its out-state back in one merge.
struct State {
  std::vector<Fact> Facts;
  std::vector<unsigned> TopLocs; ///< sorted co-finite locations
  bool Top = true;
  RegProvs RegProv;

  /// Back to the meet identity, keeping the storage. A Top state's RegProv
  /// is never read: meeting into it copies the other side's.
  void reset() {
    Facts.clear();
    TopLocs.clear();
    Top = true;
  }

  bool isTopLoc(unsigned L) const {
    return !TopLocs.empty() &&
           std::binary_search(TopLocs.begin(), TopLocs.end(), L);
  }

  /// Intersect with \p O; returns whether this state changed. \p Tmp is a
  /// work buffer.
  bool meet(const State &O, std::vector<Fact> &Tmp) {
    if (O.Top)
      return false;
    if (Top) {
      *this = O;
      return true;
    }
    bool Changed;
    if (TopLocs.empty() && O.TopLocs.empty()) {
      // Advance both sides without branching on the comparisons.
      size_t W = 0, I = 0, J = 0;
      while (I < Facts.size() && J < O.Facts.size()) {
        Fact A = Facts[I], B = O.Facts[J];
        Facts[W] = A;
        W += A == B;
        I += A <= B;
        J += B <= A;
      }
      Changed = W != Facts.size();
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
      size_t Before = TopLocs.size();
      TopLocs.erase(std::remove_if(TopLocs.begin(), TopLocs.end(),
                                   [&O](unsigned L) { return !O.isTopLoc(L); }),
                    TopLocs.end());
      Changed = Tmp != Facts || TopLocs.size() != Before;
      Facts.swap(Tmp);
    }
    if (!sameProvs(RegProv, O.RegProv))
      for (unsigned P = 0; P < NumPRegs; ++P) {
        Prov M = RegProv[P].meet(O.RegProv[P]);
        Changed |= !(M == RegProv[P]);
        RegProv[P] = M;
      }
    return Changed;
  }

  bool operator==(const State &O) const {
    return Top == O.Top && Facts == O.Facts && TopLocs == O.TopLocs &&
           sameProvs(RegProv, O.RegProv);
  }
};

/// The state inside one block's transfer: the block's in-state, read only,
/// plus the locations the block has written so far, each with its whole
/// current set (the values it holds, or for a co-finite location the values
/// it excludes). Every other location reads through to the in-state, whose
/// facts begin() chains by location in one pass. So an edit costs what it
/// touches: a location's few facts, a value's run, and the written
/// locations; and finish() writes the out-state in one merge.
class BlockState {
public:
  RegProvs RegProv;

  /// Size the per-location tables for a function with \p NumLocs locations.
  void reset(unsigned NumLocs) {
    Mark.assign(NumLocs, Unwritten);
    Head.assign(NumLocs, 0);
    Stamp.assign(NumLocs, 0);
    Epoch = 0;
    if (Vals.size() < NumLocs)
      Vals.resize(NumLocs);
  }

  /// Start a block from \p S, which must outlive the transfer.
  void begin(const State &S) {
    In = &S;
    RegProv = S.RegProv;
    // Chain the in-state's facts by location. A stamp other than this
    // epoch's marks a location with no facts.
    ++Epoch;
    Next.resize(S.Facts.size());
    for (unsigned I = S.Facts.size(); I-- > 0;) {
      unsigned L = factLoc(S.Facts[I]);
      Next[I] = Stamp[L] == Epoch ? Head[L] : NoFact;
      Head[L] = I;
      Stamp[L] = Epoch;
    }
  }

  bool holds(unsigned L, unsigned V) const {
    if (Mark[L] != Unwritten)
      return has(Vals[L], V) != (Mark[L] == CoFinite);
    for (unsigned I = first(L); I != NoFact; I = Next[I])
      if (factValue(In->Facts[I]) == V)
        return !In->isTopLoc(L);
    return In->isTopLoc(L);
  }

  /// Append every location holding \p V to \p Out, in no particular order.
  void holders(unsigned V, std::vector<unsigned> &Out) const {
    for (unsigned L : Written)
      if (has(Vals[L], V) != (Mark[L] == CoFinite))
        Out.push_back(L);
    for (Fact F : valueRun(In->Facts, V))
      if (Mark[factLoc(F)] == Unwritten && !In->isTopLoc(factLoc(F)))
        Out.push_back(factLoc(F));
    if (In->TopLocs.empty())
      return; // no location is co-finite
    for (unsigned L : In->TopLocs)
      if (Mark[L] == Unwritten &&
          !std::binary_search(In->Facts.begin(), In->Facts.end(), fact(V, L)))
        Out.push_back(L);
  }

  /// L now holds V (and whatever else it held).
  void add(unsigned L, unsigned V) {
    touch(L);
    set(L, V, Mark[L] != CoFinite);
  }

  /// V is held nowhere.
  void kill(unsigned V) {
    KillLocs.clear();
    holders(V, KillLocs);
    for (unsigned L : KillLocs) {
      touch(L);
      set(L, V, Mark[L] == CoFinite);
    }
  }

  /// L holds nothing.
  void clear(unsigned L) { rewrite(L, Finite); }

  /// D now holds exactly what S holds.
  void copy(unsigned D, unsigned S) {
    if (D == S)
      return;
    if (Mark[S] != Unwritten) {
      rewrite(D, Mark[S]);
      Vals[D] = Vals[S];
      return;
    }
    rewrite(D, In->isTopLoc(S) ? CoFinite : Finite);
    for (unsigned I = first(S); I != NoFact; I = Next[I])
      Vals[D].push_back(factValue(In->Facts[I]));
  }

  /// Write the state reached into \p Out and forget the block.
  void finish(State &Out) {
    Out.Top = false;
    Out.RegProv = RegProv;
    // The written locations' facts, sorted, merged with the in-state's
    // facts at the other locations.
    Delta.clear();
    for (unsigned L : Written)
      for (unsigned V : Vals[L])
        Delta.push_back(fact(V, L));
    std::sort(Delta.begin(), Delta.end());
    const std::vector<Fact> &Base = In->Facts;
    Out.Facts.resize(Base.size() + Delta.size());
    Fact *O = Out.Facts.data();
    const Fact *D = Delta.data(), *DEnd = D + Delta.size();
    for (Fact F : Base) {
      while (D != DEnd && *D < F)
        *O++ = *D++;
      *O = F; // kept only at an unwritten location
      O += Mark[factLoc(F)] == Unwritten;
    }
    O = std::copy(D, DEnd, O);
    Out.Facts.resize(O - Out.Facts.data());
    Out.TopLocs.clear();
    if (!In->TopLocs.empty()) {
      for (unsigned L : In->TopLocs)
        if (Mark[L] == Unwritten)
          Out.TopLocs.push_back(L);
      for (unsigned L : Written)
        if (Mark[L] == CoFinite)
          Out.TopLocs.push_back(L);
      std::sort(Out.TopLocs.begin(), Out.TopLocs.end());
    }
    for (unsigned L : Written)
      Mark[L] = Unwritten;
    Written.clear();
  }

private:
  enum : uint8_t { Unwritten, Finite, CoFinite };
  static constexpr unsigned NoFact = ~0u;

  const State *In = nullptr;
  // Per location.
  std::vector<uint8_t> Mark;
  std::vector<std::vector<unsigned>> Vals; ///< a written location's set
  std::vector<unsigned> Head, Stamp;       ///< the in-state's chains
  unsigned Epoch = 0;
  std::vector<unsigned> Next; ///< per in-state fact: the location's next
  std::vector<unsigned> Written, KillLocs;
  std::vector<Fact> Delta;

  static bool has(const std::vector<unsigned> &Vs, unsigned V) {
    return std::find(Vs.begin(), Vs.end(), V) != Vs.end();
  }

  unsigned first(unsigned L) const {
    return Stamp[L] == Epoch ? Head[L] : NoFact;
  }

  /// Make V a member of written location L's set or not.
  void set(unsigned L, unsigned V, bool Member) {
    std::vector<unsigned> &Vs = Vals[L];
    auto It = std::find(Vs.begin(), Vs.end(), V);
    if (Member && It == Vs.end())
      Vs.push_back(V);
    else if (!Member && It != Vs.end()) {
      *It = Vs.back();
      Vs.pop_back();
    }
  }

  /// Make \p L written, starting from what the in-state says it holds.
  void touch(unsigned L) {
    if (Mark[L] != Unwritten)
      return;
    Mark[L] = In->isTopLoc(L) ? CoFinite : Finite;
    Written.push_back(L);
    std::vector<unsigned> &Vs = Vals[L];
    Vs.clear();
    for (unsigned I = first(L); I != NoFact; I = Next[I])
      Vs.push_back(factValue(In->Facts[I]));
  }

  /// Make \p L written with an empty set, finite or co-finite as \p M says.
  void rewrite(unsigned L, uint8_t M) {
    if (Mark[L] == Unwritten)
      Written.push_back(L);
    Mark[L] = M;
    Vals[L].clear();
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

/// The buffers of a verification that outlive one function: each function
/// reuses what the last one grew.
struct Workspace {
  std::vector<State> In, Out; ///< per allocated block
  State Next;                 ///< a transfer's out-state, before comparing
  State TopIn;                ///< the meet identity made explicit
  BlockState Cur;
  std::vector<Event> Events;       ///< every original block's, in order
  std::vector<unsigned> EventsEnd; ///< per original block
  std::vector<unsigned> FirstIdx;  ///< original linear index of each block
  std::vector<std::vector<AllocError>> BlockErrors; ///< per allocated block
  std::vector<unsigned> SplitTarget; ///< resolveTarget per allocated block
  std::vector<SuccList> Succs;       ///< per allocated block
  std::vector<unsigned> RPOIndex, Work, Holders;
  std::vector<unsigned> OutVersion; ///< per block: how often Out changed
  std::vector<unsigned> MetVersion; ///< per edge: the Out version met
  std::vector<uint8_t> Flags; ///< reachability marks, then pending blocks
  std::vector<Fact> FactBuf;  ///< State::meet work list
  PredecessorLists Preds;
};

class FunctionVerifier {
public:
  FunctionVerifier(const Function &Orig, const Function &Alloc,
                   const TargetDesc &TD, VerifyAllocResult &R, Workspace &W)
      : Orig(Orig), Alloc(Alloc), TD(TD), R(R), W(W), S(W.Cur) {}

  void run();

private:
  const Function &Orig;
  const Function &Alloc;
  const TargetDesc &TD;
  VerifyAllocResult &R;
  Workspace &W;
  BlockState &S; ///< the state of the block being transferred

  unsigned NumV = 0, NumLocs = 0;
  unsigned ErrorCount = 0;
  /// Where checkUse reports: the current block's buffer during the solve.
  std::vector<AllocError> *Report = nullptr;

  // --- error helpers -----------------------------------------------------

  AllocError &addError(AllocErrorKind K, unsigned B, unsigned I,
                       std::string Detail) {
    return pushError(R.Errors, K, B, I, std::move(Detail));
  }

  AllocError &pushError(std::vector<AllocError> &To, AllocErrorKind K,
                        unsigned B, unsigned I, std::string Detail) {
    To.push_back(AllocError());
    AllocError &E = To.back();
    E.Kind = K;
    E.Func = Alloc.name();
    E.Block = B;
    E.InstrIdx = I;
    E.Detail = std::move(Detail);
    ++ErrorCount;
    return E;
  }

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

  unsigned usePos(unsigned B, unsigned OrigIdx) const {
    return Numbering::usePos(W.FirstIdx[B] + OrigIdx);
  }

  void entryState(State &E) const {
    E.Top = false;
    for (unsigned P = 0; P < NumPRegs; ++P) {
      E.Facts.push_back(fact(NumV + P, P));
      E.RegProv[P] = {Prov::Entry, NoInfo};
    }
  }

  const State &topIn();
  void transferBlock(unsigned B, const State &In, State &Out);
  void transferSpill(const Instr &AI);
  void transferOrigMove(const Instr &OI, unsigned B, unsigned OrigIdx);
  void transferMatched(const Instr &OI, const Instr &AI, unsigned B,
                       unsigned AllocIdx, unsigned OrigIdx);
  void checkUse(unsigned Val, unsigned P, unsigned B, unsigned AllocIdx,
                unsigned Pos);
  void solve();
};

bool FunctionVerifier::computeSplitTargets() {
  unsigned NB = Alloc.numBlocks();
  unsigned OrigNB = Orig.numBlocks();
  W.SplitTarget.assign(NB, NoInfo);
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
    W.SplitTarget[B] = Cur;
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
  std::vector<uint8_t> &Seen = W.Flags;
  Seen.assign(NB, 0);
  W.Work.assign(1, 0);
  Seen[0] = 1;
  for (size_t Head = 0; Head < W.Work.size(); ++Head) {
    unsigned B = W.Work[Head];
    if (!Alloc.block(B).hasTerminator())
      continue;
    for (unsigned S : W.Succs[B])
      if (S < NB && !Seen[S]) {
        Seen[S] = 1;
        W.Work.push_back(S);
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
    return A.isLabel() && A.labelBlock() < W.SplitTarget.size() &&
           W.SplitTarget[A.labelBlock()] == O.labelBlock();
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
  std::vector<Event> &Ev = W.Events;

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
  // Relabel events queue in original order from Ev[Relabels] on. Within the
  // gap before the next anchor, machine events (spill code, physical moves)
  // run first and the queued relabels after — the abstract state is then
  // checked exactly at the anchor, which is the point where the machine
  // contract has to hold.
  size_t Relabels = Ev.size();
  auto flushGap = [&]() -> bool {
    size_t Machine = Ev.size();
    if (!consumeAllocGap())
      return false;
    std::rotate(Ev.begin() + Relabels, Ev.begin() + Machine, Ev.end());
    return true;
  };

  for (unsigned OrigIdx = 0; OrigIdx < OB.size(); ++OrigIdx) {
    const Instr &OI = OB.instrs()[OrigIdx];
    if (OI.opcode() == Opcode::Nop)
      continue;
    if (OI.isRegMove()) {
      Ev.push_back({Event::OrigMove, NoInfo, OrigIdx});
      continue;
    }
    // Anchor: the next non-move allocated instruction must be this one's
    // allocation.
    if (!flushGap())
      return false;
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
    Relabels = Ev.size();
    ++AIdx;
  }
  // Trailing relabels stay queued; drain any remaining allocated tail.
  if (!flushGap())
    return false;
  if (AIdx < AB.size()) {
    addError(AllocErrorKind::Structural, B, AIdx,
             "allocated instruction beyond the end of the original block");
    return false;
  }
  return true;
}

void FunctionVerifier::checkUse(unsigned Val, unsigned P, unsigned B,
                                unsigned AllocIdx, unsigned Pos) {
  if (S.holds(P, Val) || Report->size() >= MaxErrorsPerFunction)
    return;
  // Classify: what does P hold instead, and where does the value live?
  const Prov &PV = S.RegProv[P];
  W.Holders.clear();
  S.holders(Val, W.Holders);
  bool Elsewhere = !W.Holders.empty();
  unsigned HomeSlot = NoInfo; // the lowest slot holding the value
  for (unsigned L : W.Holders)
    if (L >= NumPRegs && (HomeSlot == NoInfo || L - NumPRegs < HomeSlot))
      HomeSlot = L - NumPRegs;
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
  AllocError &E =
      pushError(*Report, K, B, AllocIdx,
                "use of " +
                    (Val < NumV ? "v" + std::to_string(Val)
                                : "the convention value of " +
                                      obs::pregDisplayName(Val - NumV)) +
                    ": " + Why);
  if (Val < NumV)
    E.VReg = Val;
  E.PReg = P;
  E.Pos = Pos;
}

void FunctionVerifier::transferSpill(const Instr &AI) {
  switch (AI.opcode()) {
  case Opcode::LdSlot:
  case Opcode::FLdSlot: {
    unsigned D = AI.op(0).pregId();
    unsigned Slot = AI.op(1).slotId();
    S.copy(D, NumPRegs + Slot);
    S.RegProv[D] = {Prov::LoadSlot, Slot};
    return;
  }
  case Opcode::StSlot:
  case Opcode::FStSlot:
    S.copy(NumPRegs + AI.op(1).slotId(), AI.op(0).pregId());
    return;
  case Opcode::Mov:
  case Opcode::FMov: {
    unsigned D = AI.op(0).pregId();
    S.copy(D, AI.op(1).pregId());
    S.RegProv[D] = {Prov::SpillMove, NoInfo};
    return;
  }
  default:
    return; // flagged structurally already
  }
}

void FunctionVerifier::transferOrigMove(const Instr &OI, unsigned B,
                                        unsigned OrigIdx) {
  // Original `dst = src` relabel: after the copy, dst's value is src's
  // value, so every location that holds src's value holds dst's too. The
  // machine-side implementation (a physical move, spill traffic, or nothing
  // at all when coalesced) has already been applied as machine events. If
  // the destination is a fixed register, the register really must hold the
  // source value by the end of the gap this move sits in.
  unsigned SrcVal = valueOf(OI.op(1));
  const Operand &Dst = OI.op(0);
  if (Dst.isPReg()) {
    checkUse(SrcVal, Dst.pregId(), B, NoInfo, usePos(B, OrigIdx));
    unsigned DVal = NumV + Dst.pregId();
    S.kill(DVal);
    S.add(Dst.pregId(), DVal);
    return;
  }
  unsigned DVal = Dst.vregId();
  S.kill(DVal);
  W.Holders.clear();
  S.holders(SrcVal, W.Holders);
  for (unsigned L : W.Holders)
    S.add(L, DVal);
}

void FunctionVerifier::transferMatched(const Instr &OI, const Instr &AI,
                                       unsigned B, unsigned AllocIdx,
                                       unsigned OrigIdx) {
  unsigned Pos = usePos(B, OrigIdx);
  // 1. Uses read the pre-state.
  unsigned D = OI.numDefSlots();
  for (unsigned U = 0; U < OI.numUseSlots(); ++U) {
    const Operand &O = OI.op(D + U);
    if (!O.isReg())
      continue;
    checkUse(valueOf(O), AI.op(D + U).pregId(), B, AllocIdx, Pos);
  }
  if (OI.isCall()) {
    for (unsigned A = 0; A < OI.CallIntArgs; ++A) {
      unsigned P = TargetDesc::intArgReg(A);
      checkUse(NumV + P, P, B, AllocIdx, Pos);
    }
    for (unsigned A = 0; A < OI.CallFpArgs; ++A) {
      unsigned P = TargetDesc::fpArgReg(A);
      checkUse(NumV + P, P, B, AllocIdx, Pos);
    }
    // 2. The caller-saved set dies: one cheap rewrite per register.
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
    S.copy(NumPRegs + AI.op(1).slotId(), AI.op(0).pregId());
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
      S.copy(DP, NumPRegs + AI.op(1).slotId());
    else
      S.clear(DP);
    S.add(DP, DVal);
    S.RegProv[DP] = {Prov::Def, NoInfo};
  }
}

const State &FunctionVerifier::topIn() {
  State &T = W.TopIn;
  if (T.Top || T.TopLocs.size() != NumLocs) {
    T.reset();
    T.Top = false;
    T.RegProv.fill(Prov());
    for (unsigned L = 0; L < NumLocs; ++L)
      T.TopLocs.push_back(L);
  }
  return T;
}

void FunctionVerifier::transferBlock(unsigned B, const State &In,
                                     State &Out) {
  // A Top in-state means the block is unreachable, and so are all its
  // predecessors: every location starts co-finite.
  S.begin(In.Top ? topIn() : In);
  if (B >= Orig.numBlocks()) {
    for (const Instr &AI : Alloc.block(B).instrs())
      if (AI.Spill != SpillKind::None)
        transferSpill(AI);
    S.finish(Out);
    return;
  }
  const Block &AB = Alloc.block(B);
  const Block &OB = Orig.block(B);
  unsigned First = B ? W.EventsEnd[B - 1] : 0;
  for (unsigned I = First; I < W.EventsEnd[B]; ++I) {
    const Event &E = W.Events[I];
    switch (E.K) {
    case Event::SpillCode:
    case Event::AllocCopy: // untagged physical move: same machine semantics
      transferSpill(AB.instrs()[E.AllocIdx]);
      break;
    case Event::OrigMove:
      transferOrigMove(OB.instrs()[E.OrigIdx], B, E.OrigIdx);
      break;
    case Event::Matched:
      transferMatched(OB.instrs()[E.OrigIdx], AB.instrs()[E.AllocIdx], B,
                      E.AllocIdx, E.OrigIdx);
      break;
    }
  }
  S.finish(Out);
}

void FunctionVerifier::solve() {
  unsigned NB = Alloc.numBlocks();
  if (W.In.size() < NB) {
    W.In.resize(NB);
    W.Out.resize(NB);
    W.BlockErrors.resize(NB);
  }
  for (unsigned B = 0; B < NB; ++B) { // Top: the meet identity
    W.In[B].reset();
    W.Out[B].reset();
    W.BlockErrors[B].clear();
  }
  entryState(W.In[0]);
  S.reset(NumLocs);

  W.Preds.recompute(Alloc);
  std::vector<unsigned> RPO = reversePostOrder(Alloc);
  W.RPOIndex.resize(NB);
  for (unsigned I = 0; I < RPO.size(); ++I)
    W.RPOIndex[RPO[I]] = I;

  // Sweep in RPO, transferring every block once and then only the blocks
  // a predecessor's changed out-state reaches; a back edge to a pending
  // block costs another sweep. The order is total (unreachable blocks come
  // last), so every block is transferred at least once.
  //
  // Every transfer reports into its block's buffer, replacing the previous
  // visit's: a block's in-state changes only when the block is visited, so
  // its last visit ran on its final in-state, and its buffer holds exactly
  // the errors of that state.
  //
  // A block meets only the out-states that changed since it last met them,
  // and a visit whose meets leave the in-state as it was transfers nothing:
  // the out-state and the errors would come out the same.
  enum : uint8_t { Done, Pending, Unvisited };
  std::vector<uint8_t> &Flag = W.Flags;
  Flag.assign(NB, Unvisited);
  W.OutVersion.assign(NB, 0); // version 0: Top, the meet identity
  W.MetVersion.assign(W.Preds.numEdges(), 0);
  for (bool Again = true; Again;) {
    Again = false;
    for (unsigned B : RPO) {
      if (Flag[B] == Done)
        continue;
      bool Changed = Flag[B] == Unvisited;
      Flag[B] = Done;
      // The entry block's in-state starts at the machine contract and still
      // meets its predecessors: a branch back to the entry block must agree
      // with the entry state on every location it relies on.
      //
      // Out-states only shrink as the solve goes on (every transfer is
      // monotone), so a block with one predecessor has that predecessor's
      // current out-state as its in-state, and reads it in place.
      std::span<const unsigned> Ps = W.Preds[B];
      const State *In = &W.In[B];
      if (B != 0 && Ps.size() == 1)
        In = &W.Out[Ps[0]];
      unsigned Edge = W.Preds.firstEdge(B);
      for (unsigned P : Ps) {
        unsigned &Met = W.MetVersion[Edge++];
        if (Met == W.OutVersion[P])
          continue;
        Met = W.OutVersion[P];
        Changed |= In != &W.In[B] || W.In[B].meet(W.Out[P], W.FactBuf);
      }
      if (!Changed)
        continue;
      Report = &W.BlockErrors[B];
      Report->clear();
      transferBlock(B, *In, W.Next);
      if (W.Next == W.Out[B])
        continue;
      State &Out = W.Out[B];
      Out.Facts.swap(W.Next.Facts);
      Out.TopLocs.swap(W.Next.TopLocs);
      Out.Top = false;
      Out.RegProv = W.Next.RegProv;
      ++W.OutVersion[B];
      for (unsigned Succ : W.Succs[B]) {
        if (Flag[Succ] == Done)
          Flag[Succ] = Pending;
        Again |= W.RPOIndex[Succ] <= W.RPOIndex[B];
      }
    }
  }

  // Emit in block order, up to the per-function cap.
  for (unsigned B = 0, N = 0; B < NB; ++B)
    for (AllocError &E : W.BlockErrors[B]) {
      if (N++ == MaxErrorsPerFunction)
        return;
      R.Errors.push_back(std::move(E));
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
  W.Succs.resize(Alloc.numBlocks());
  for (unsigned B = 0; B < Alloc.numBlocks(); ++B)
    W.Succs[B] = Alloc.block(B).successors();
  for (unsigned B = Orig.numBlocks(); B < Alloc.numBlocks(); ++B)
    checkSplitBlock(B);
  checkSplitReachability();

  W.Events.clear();
  W.EventsEnd.resize(Orig.numBlocks());
  W.FirstIdx.resize(Orig.numBlocks());
  bool MatchOk = true;
  for (unsigned B = 0, Idx = 0; B < Orig.numBlocks(); ++B) {
    W.FirstIdx[B] = Idx;
    Idx += Orig.block(B).size();
    MatchOk &= matchBlock(B);
    W.EventsEnd[B] = static_cast<unsigned>(W.Events.size());
  }
  if (!MatchOk || ErrorCount)
    return; // the dataflow needs a sound matching
  solve();
}

/// This thread's workspace. Verifying allocates only while a function is
/// larger than any this thread verified before; a workspace grown past
/// MaxKeptBlocks blocks is released after the call.
Workspace &threadWorkspace() {
  static thread_local Workspace W;
  return W;
}

constexpr unsigned MaxKeptBlocks = 4096;

void trimWorkspace(Workspace &W) {
  if (W.In.size() > MaxKeptBlocks)
    W = Workspace();
}

} // namespace

VerifyAllocResult lsra::check::verifyAllocation(const Function &Orig,
                                                const Function &Alloc,
                                                const TargetDesc &TD) {
  VerifyAllocResult R;
  Workspace &W = threadWorkspace();
  FunctionVerifier(Orig, Alloc, TD, R, W).run();
  trimWorkspace(W);
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
  Workspace &W = threadWorkspace();
  for (unsigned I = 0; I < Orig.numFunctions(); ++I)
    FunctionVerifier(Orig.function(I), Alloc.function(I), TD, R, W).run();
  trimWorkspace(W);
  return R;
}
