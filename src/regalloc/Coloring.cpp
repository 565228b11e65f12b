//===- regalloc/Coloring.cpp - Iterated register coalescing ---------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// A standard implementation of George & Appel's algorithm, following the
// published worklist pseudocode. One ColoringProblem instance colors one
// register class; rounds of build/simplify/coalesce/freeze/spill/select
// repeat until no actual spills remain, with spill code inserted between
// rounds (loads before uses, stores after defs, one fresh block-local
// temporary per reference).
//
// The bookkeeping is kept to what the pseudocode needs: build() walks a
// short ascending list of live nodes per def, the spill and freeze
// worklists drop a node by changing its state (stale entries are skipped
// where they are popped), the spill choice comes from a heap, and the
// adjacency matrix lives across the rounds of a class. Every choice is
// the one the plain list-based formulation makes, in the same order.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coloring.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "regalloc/SpillSlots.h"
#include "support/BitVector.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <sys/mman.h>
#include <unistd.h>

using namespace lsra;

namespace {

constexpr unsigned NoNode = ~0u;

/// Lower-triangular bit matrix recording the adjacency relation, per the
/// paper's implementation note (§3). One matrix serves all rounds of one
/// register class. Node ids are stable across rounds and only grow, and
/// the caller clears the bits it set instead of re-zeroing the array, so
/// growing never copies: a small matrix is reallocated zeroed on the
/// heap, and a large one lives in an anonymous mapping that mremap
/// extends in place (new pages arrive zeroed; the old ones stay). Index
/// and size arithmetic is 64-bit: N*(N+1)/2 no longer fits 32 bits from
/// 65,536 nodes on.
class AdjMatrix {
public:
  AdjMatrix() = default;
  AdjMatrix(const AdjMatrix &) = delete;
  AdjMatrix &operator=(const AdjMatrix &) = delete;
  ~AdjMatrix() {
    if (Mapped)
      ::munmap(Mapped, MappedBytes);
  }

  /// Make room for nodes [0, \p NewN). Every bit must be clear.
  void grow(unsigned NewN) {
    if (NewN <= N)
      return;
    N = NewN;
    uint64_t NumWords = (uint64_t(N) * (N + 1) / 2 + 63) / 64;
    size_t Need = static_cast<size_t>(NumWords * 8);
    Heap = {};
    if (Need <= MaxHeapBytes) {
      // Below this a mapping's system calls cost more than zeroing.
      Heap.resize(NumWords);
      Words = Heap.data();
      return;
    }
    static const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    size_t Want = (Need + Page - 1) / Page * Page;
    if (Want > MappedBytes) {
      void *P = Mapped ? ::mremap(Mapped, MappedBytes, Want, MREMAP_MAYMOVE)
                       : ::mmap(nullptr, Want, PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (P == MAP_FAILED)
        throw std::bad_alloc();
      Mapped = static_cast<uint64_t *>(P);
      MappedBytes = Want;
    }
    Words = Mapped;
  }

  bool test(unsigned A, unsigned B) const {
    uint64_t I = index(A, B);
    return (Words[I / 64] >> (I % 64)) & 1;
  }
  void set(unsigned A, unsigned B) {
    uint64_t I = index(A, B);
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }
  void reset(unsigned A, unsigned B) {
    uint64_t I = index(A, B);
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }
  /// Clear every bit between two nodes below \p M.
  void clearBelow(unsigned M) {
    if (N == 0)
      return;
    uint64_t NumBits = uint64_t(M) * (M + 1) / 2;
    std::memset(Words, 0, static_cast<size_t>((NumBits + 63) / 64 * 8));
  }

private:
  uint64_t index(unsigned A, unsigned B) const {
    if (A < B)
      std::swap(A, B);
    assert(A < N && "node out of range");
    return uint64_t(A) * (A + 1) / 2 + B;
  }
  static constexpr size_t MaxHeapBytes = 256 << 10;
  uint64_t *Words = nullptr;
  std::vector<uint64_t> Heap;
  uint64_t *Mapped = nullptr;
  size_t MappedBytes = 0;
  unsigned N = 0;
};

enum class NodeState : uint8_t {
  Precolored,
  Initial,
  SimplifyWL,
  FreezeWL,
  SpillWL,
  Spilled,
  Coalesced,
  Colored,
  OnStack,
};

enum class MoveState : uint8_t {
  Worklist,
  Active,
  Coalesced,
  Constrained,
  Frozen,
};

struct MoveRec {
  unsigned Src, Dst; ///< node ids
  MoveState State = MoveState::Worklist;
};

/// A spill-worklist entry. The heap's top is the node with the least
/// Chaitin metric, ties going to the node that entered the worklist
/// first: the pick of a front-to-back scan of the worklist for a strictly
/// smaller metric. A node's metric rises when its degree falls or its
/// cost grows; such entries are left in place and re-keyed when they
/// reach the top (a stored metric is then a lower bound, so the first
/// top whose metric is current is the true minimum). A metric falls only
/// when a coalesce raises the degree; that pushes a new entry.
struct SpillCand {
  double Metric;
  unsigned Stamp; ///< order of entry into the spill worklist
  unsigned Node;
  bool operator>(const SpillCand &O) const {
    return Metric > O.Metric || (Metric == O.Metric && Stamp > O.Stamp);
  }
};

/// One coloring problem: all temporaries of one register class.
class ColoringProblem {
public:
  ColoringProblem(Function &F, const TargetDesc &TD, RegClass RC,
                  const Liveness &LV, const LoopInfo &LI, SpillSlots &Slots,
                  AllocStats &Stats)
      : F(F), TD(TD), RC(RC), LV(LV), LI(LI), Slots(Slots), Stats(Stats),
        K(TD.numAllocatable(RC)), NumNodes(K) {
    PRegToNode.fill(NoNode);
    const auto &Order = TD.allocOrder(RC);
    for (unsigned I = 0; I < Order.size(); ++I)
      PRegToNode[Order[I]] = I;
  }

  /// Repeat build/color/spill rounds to completion, then rewrite operands.
  void run();

private:
  Function &F;
  const TargetDesc &TD;
  RegClass RC;
  const Liveness &LV;
  const LoopInfo &LI;
  SpillSlots &Slots;
  AllocStats &Stats;
  unsigned K;

  // Node numbering: [0, K) = the allocatable registers of this class (in
  // allocation-preference order); [K, NumNodes) = temporaries, via
  // VRegToNode, in vreg order. Spill code only appends vregs, so a node
  // keeps its id across rounds.
  std::vector<unsigned> VRegToNode;
  std::vector<unsigned> NodeToVReg;
  std::array<unsigned, NumPRegs> PRegToNode;
  unsigned NumNodes;

  AdjMatrix Adj;
  std::vector<std::vector<unsigned>> AdjList;
  std::vector<unsigned> Degree;
  std::vector<NodeState> State;
  std::vector<unsigned> Alias;
  std::vector<unsigned> Color; ///< register id, ~0u = none
  std::vector<double> SpillCost;
  std::vector<MoveRec> Moves;
  std::vector<std::vector<unsigned>> MoveList;
  std::vector<unsigned> SelectStack;
  /// Worklists popped from the back; an entry whose node has since left
  /// the list's state is stale and skipped.
  std::vector<unsigned> SimplifyWL, FreezeWL, WorklistMoves;
  /// The spill worklist: a min-heap of SpillCand plus a live-node count.
  std::vector<SpillCand> SpillHeap;
  std::vector<unsigned> SpillStamp;
  unsigned NumSpillWL = 0;
  unsigned NextSpillStamp = 0;
  std::vector<unsigned> SpilledNodes;
  /// Scratch: the live nodes of build(), ascending, with membership flags;
  /// freezeMoves' move list; Briggs-test marks.
  std::vector<unsigned> LiveNodes;
  std::vector<uint8_t> InLive;
  std::vector<unsigned> NodeMoves;
  std::vector<unsigned> Mark;
  unsigned MarkEpoch = 0;
  /// VRegs created by spill-code insertion: unspillable (infinite cost).
  BitVector SpillTemp;
  /// VRegs spilled in earlier rounds. They no longer occur in the code,
  /// but the once-computed global liveness still lists them; build() must
  /// ignore them or they would interfere with whole blocks forever.
  BitVector EverSpilledV;

  bool isOfClass(const Operand &Op) const {
    return Op.isVReg() ? F.vregClass(Op.vregId()) == RC
                       : pregClass(Op.pregId()) == RC;
  }
  unsigned nodeOfOperand(const Operand &Op) const {
    // NoNode for a non-allocatable or other-class physical register.
    return Op.isVReg() ? VRegToNode[Op.vregId()] : PRegToNode[Op.pregId()];
  }
  /// A node that counts as adjacent: not on the select stack, not merged.
  bool isAdjacent(unsigned A) const {
    return State[A] != NodeState::OnStack && State[A] != NodeState::Coalesced;
  }

  void initRound();
  void build();
  void liveInsert(unsigned N);
  void liveErase(unsigned N);
  void addEdge(unsigned U, unsigned V);
  void makeWorklist();
  bool moveRelated(unsigned N) const;
  void pushSimplify(unsigned N);
  void pushFreeze(unsigned N);
  double spillMetric(unsigned N) const;
  void pushSpill(unsigned N);
  void enterSpillWL(unsigned N);
  void simplify();
  void decrementDegree(unsigned N);
  void enableMoves(unsigned N);
  void coalesce();
  void addWorkList(unsigned N);
  bool okGeorge(unsigned T, unsigned R) const;
  bool briggs(unsigned U, unsigned V);
  unsigned getAlias(unsigned N) const;
  void combine(unsigned U, unsigned V);
  void freeze();
  void freezeMoves(unsigned N);
  void selectSpill();
  void siftDownTop();
  void assignColors();
  void rewriteSpills();
  void rewriteOperands();
};

void ColoringProblem::initRound() {
  // Clear last round's edges. One with a temporary endpoint is in the
  // adjacency list of its higher-numbered end; the rest join two
  // registers, below node K.
  for (unsigned N = 0; N < AdjList.size(); ++N) {
    for (unsigned A : AdjList[N])
      if (A < N)
        Adj.reset(N, A);
    AdjList[N].clear();
    MoveList[N].clear();
  }
  Adj.clearBelow(K);

  unsigned NumV = F.numVRegs();
  unsigned OldV = static_cast<unsigned>(VRegToNode.size());
  VRegToNode.resize(NumV, NoNode);
  for (unsigned V = OldV; V < NumV; ++V)
    if (F.vregClass(V) == RC) {
      VRegToNode[V] = NumNodes++;
      NodeToVReg.push_back(V);
    }

  Adj.grow(NumNodes);
  AdjList.resize(NumNodes);
  MoveList.resize(NumNodes);
  Degree.assign(NumNodes, 0);
  State.assign(NumNodes, NodeState::Initial);
  Alias.assign(NumNodes, NoNode);
  Color.assign(NumNodes, ~0u);
  SpillCost.assign(NumNodes, 0.0);
  SpillStamp.resize(NumNodes);
  InLive.resize(NumNodes);
  Mark.resize(NumNodes);
  Moves.clear();
  SelectStack.clear();
  SimplifyWL.clear();
  FreezeWL.clear();
  WorklistMoves.clear();
  SpillHeap.clear();
  NumSpillWL = 0;
  NextSpillStamp = 0;
  SpilledNodes.clear();
  auto GrowPreserving = [NumV](BitVector &BV) {
    if (BV.size() >= NumV)
      return;
    BitVector Grown(NumV);
    BV.forEachSetBit([&](unsigned V) { Grown.set(V); });
    BV = Grown;
  };
  GrowPreserving(SpillTemp);
  GrowPreserving(EverSpilledV);

  for (unsigned P = 0; P < K; ++P) {
    State[P] = NodeState::Precolored;
    Color[P] = TD.allocOrder(RC)[P];
    Degree[P] = std::numeric_limits<unsigned>::max() / 2;
  }
}

void ColoringProblem::addEdge(unsigned U, unsigned V) {
  if (U == V)
    return;
  if (Adj.test(U, V))
    return;
  Adj.set(U, V);
  ++Stats.InterferenceEdges;
  if (U >= K) { // not precolored
    AdjList[U].push_back(V);
    ++Degree[U];
    if (State[U] == NodeState::SpillWL)
      pushSpill(U);
  }
  if (V >= K) {
    AdjList[V].push_back(U);
    ++Degree[V];
    if (State[V] == NodeState::SpillWL)
      pushSpill(V);
  }
}

void ColoringProblem::liveInsert(unsigned N) {
  if (InLive[N])
    return;
  InLive[N] = 1;
  LiveNodes.insert(
      std::lower_bound(LiveNodes.begin(), LiveNodes.end(), N), N);
}

void ColoringProblem::liveErase(unsigned N) {
  if (!InLive[N])
    return;
  InLive[N] = 0;
  LiveNodes.erase(std::lower_bound(LiveNodes.begin(), LiveNodes.end(), N));
}

void ColoringProblem::build() {
  // Per-block backward scan with a live node set. Global liveness was
  // computed once before allocation; spill temporaries introduced by later
  // rounds are block-local and appear/disappear within the scan.
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    for (unsigned N : LiveNodes)
      InLive[N] = 0;
    LiveNodes.clear();
    // Vreg ids ascend with node ids, so the seed list comes out sorted.
    LV.liveOut(B).forEach([&](unsigned V) {
      unsigned N = VRegToNode[V];
      if (N != NoNode && !EverSpilledV.test(V)) {
        InLive[N] = 1;
        LiveNodes.push_back(N);
      }
    });

    auto Instrs = F.block(B).instrs();
    double W = LI.blockWeight(B);
    for (unsigned Idx = Instrs.size(); Idx-- > 0;) {
      const Instr &I = Instrs[Idx];

      // Move instructions get special treatment: the source does not
      // interfere with the destination, and the move becomes a coalescing
      // candidate.
      if (I.isRegMove() && I.slotClass(0) == RC) {
        unsigned SrcN = nodeOfOperand(I.op(1));
        unsigned DstN = nodeOfOperand(I.op(0));
        if (SrcN != NoNode && DstN != NoNode && SrcN != DstN) {
          liveErase(SrcN);
          unsigned MIdx = static_cast<unsigned>(Moves.size());
          Moves.push_back({SrcN, DstN, MoveState::Worklist});
          MoveList[SrcN].push_back(MIdx);
          MoveList[DstN].push_back(MIdx);
          WorklistMoves.push_back(MIdx);
        }
      }

      // Defs (including the call's return register and clobbers) interfere
      // with everything live across the def.
      auto HandleDef = [&](unsigned N) {
        if (N == NoNode)
          return;
        for (unsigned L : LiveNodes)
          addEdge(L, N);
        liveErase(N);
        if (N >= K)
          SpillCost[N] += W;
      };
      forEachDefinedReg(I, [&](const Operand &Op) {
        if (isOfClass(Op))
          HandleDef(nodeOfOperand(Op));
      });
      forEachClobberedReg(I, TD, [&](unsigned P) {
        if (pregClass(P) == RC)
          HandleDef(PRegToNode[P]);
      });

      forEachUsedReg(I, [&](const Operand &Op) {
        if (!isOfClass(Op))
          return;
        unsigned N = nodeOfOperand(Op);
        if (N == NoNode)
          return;
        liveInsert(N);
        if (N >= K)
          SpillCost[N] += W;
      });
    }
  }

  // Unspillable spill temporaries get effectively infinite cost.
  for (unsigned N = K; N < NumNodes; ++N)
    if (SpillTemp.test(NodeToVReg[N - K]))
      SpillCost[N] = std::numeric_limits<double>::infinity();
}

void ColoringProblem::pushSimplify(unsigned N) {
  State[N] = NodeState::SimplifyWL;
  SimplifyWL.push_back(N);
}

void ColoringProblem::pushFreeze(unsigned N) {
  State[N] = NodeState::FreezeWL;
  FreezeWL.push_back(N);
}

double ColoringProblem::spillMetric(unsigned N) const {
  // Chaitin metric: weighted occurrence count / current degree.
  return SpillCost[N] / std::max(1u, Degree[N]);
}

void ColoringProblem::pushSpill(unsigned N) {
  SpillHeap.push_back({spillMetric(N), SpillStamp[N], N});
  std::push_heap(SpillHeap.begin(), SpillHeap.end(), std::greater<>());
}

void ColoringProblem::enterSpillWL(unsigned N) {
  State[N] = NodeState::SpillWL;
  SpillStamp[N] = NextSpillStamp++;
  ++NumSpillWL;
  pushSpill(N);
}

void ColoringProblem::makeWorklist() {
  for (unsigned N = K; N < NumNodes; ++N) {
    if (Degree[N] >= K)
      enterSpillWL(N);
    else if (moveRelated(N))
      pushFreeze(N);
    else
      pushSimplify(N);
  }
}

bool ColoringProblem::moveRelated(unsigned N) const {
  for (unsigned M : MoveList[N]) {
    MoveState S = Moves[M].State;
    if (S == MoveState::Worklist || S == MoveState::Active)
      return true;
  }
  return false;
}

void ColoringProblem::simplify() {
  unsigned N = SimplifyWL.back();
  SimplifyWL.pop_back();
  if (State[N] != NodeState::SimplifyWL)
    return; // stale worklist entry
  State[N] = NodeState::OnStack;
  SelectStack.push_back(N);
  for (unsigned A : AdjList[N])
    if (isAdjacent(A))
      decrementDegree(A);
}

void ColoringProblem::decrementDegree(unsigned N) {
  if (State[N] == NodeState::Precolored)
    return;
  unsigned D = Degree[N]--;
  if (D != K)
    return;
  // Degree dropped from K to K-1: N may become simplifiable; its moves and
  // its neighbours' moves may become enabled.
  enableMoves(N);
  for (unsigned A : AdjList[N])
    if (isAdjacent(A))
      enableMoves(A);
  if (State[N] != NodeState::SpillWL)
    return;
  --NumSpillWL;
  if (moveRelated(N))
    pushFreeze(N);
  else
    pushSimplify(N);
}

void ColoringProblem::enableMoves(unsigned N) {
  for (unsigned M : MoveList[N])
    if (Moves[M].State == MoveState::Active) {
      Moves[M].State = MoveState::Worklist;
      WorklistMoves.push_back(M);
    }
}

unsigned ColoringProblem::getAlias(unsigned N) const {
  while (State[N] == NodeState::Coalesced)
    N = Alias[N];
  return N;
}

void ColoringProblem::addWorkList(unsigned N) {
  if (State[N] != NodeState::FreezeWL || moveRelated(N) || Degree[N] >= K)
    return;
  pushSimplify(N);
}

bool ColoringProblem::okGeorge(unsigned T, unsigned R) const {
  return Degree[T] < K || State[T] == NodeState::Precolored ||
         Adj.test(T, R);
}

bool ColoringProblem::briggs(unsigned U, unsigned V) {
  // Fewer than K significant-degree nodes among the union of both
  // neighbour sets (each list holds a node at most once).
  unsigned Significant = 0;
  ++MarkEpoch;
  for (unsigned T : AdjList[U])
    if (isAdjacent(T)) {
      Mark[T] = MarkEpoch;
      Significant += Degree[T] >= K;
    }
  for (unsigned T : AdjList[V])
    if (isAdjacent(T) && Mark[T] != MarkEpoch)
      Significant += Degree[T] >= K;
  return Significant < K;
}

void ColoringProblem::coalesce() {
  unsigned M = WorklistMoves.back();
  WorklistMoves.pop_back();
  unsigned X = getAlias(Moves[M].Src);
  unsigned Y = getAlias(Moves[M].Dst);
  unsigned U = X, V = Y;
  if (State[Y] == NodeState::Precolored)
    std::swap(U, V);
  if (U == V) {
    Moves[M].State = MoveState::Coalesced;
    addWorkList(U);
    return;
  }
  if (State[V] == NodeState::Precolored || Adj.test(U, V)) {
    Moves[M].State = MoveState::Constrained;
    addWorkList(U);
    addWorkList(V);
    return;
  }
  bool CanCoalesce;
  if (State[U] == NodeState::Precolored) {
    // George test: every neighbour of V is OK with U.
    CanCoalesce = std::all_of(
        AdjList[V].begin(), AdjList[V].end(),
        [&](unsigned T) { return !isAdjacent(T) || okGeorge(T, U); });
  } else {
    // Briggs test on the combined node.
    CanCoalesce = briggs(U, V);
  }
  if (CanCoalesce) {
    Moves[M].State = MoveState::Coalesced;
    combine(U, V);
    addWorkList(U);
    ++Stats.MovesCoalesced;
    obs::DecisionLog &DL = obs::DecisionLog::global();
    if (DL.enabled() && V >= K)
      DL.record(F, obs::DecisionKind::CoalesceMove, NodeToVReg[V - K],
                obs::NoValue, U < K ? Color[U] : obs::NoValue,
                State[U] == NodeState::Precolored
                    ? "George test: safe to merge with precolored node"
                    : "Briggs test: combined node stays colorable");
  } else {
    Moves[M].State = MoveState::Active;
  }
}

void ColoringProblem::combine(unsigned U, unsigned V) {
  if (State[V] == NodeState::SpillWL)
    --NumSpillWL;
  State[V] = NodeState::Coalesced;
  Alias[V] = U;
  MoveList[U].insert(MoveList[U].end(), MoveList[V].begin(),
                     MoveList[V].end());
  SpillCost[U] += SpillCost[V];
  enableMoves(V);
  // AdjList[V] does not grow here: U and T differ from V.
  for (size_t I = 0; I < AdjList[V].size(); ++I) {
    unsigned T = AdjList[V][I];
    if (!isAdjacent(T))
      continue;
    addEdge(T, U);
    decrementDegree(T);
  }
  if (Degree[U] >= K && State[U] == NodeState::FreezeWL)
    enterSpillWL(U);
}

void ColoringProblem::freeze() {
  unsigned N = FreezeWL.back();
  FreezeWL.pop_back();
  if (State[N] != NodeState::FreezeWL)
    return; // stale worklist entry
  pushSimplify(N);
  freezeMoves(N);
}

void ColoringProblem::freezeMoves(unsigned N) {
  NodeMoves.clear();
  for (unsigned M : MoveList[N]) {
    MoveState S = Moves[M].State;
    if (S == MoveState::Worklist || S == MoveState::Active)
      NodeMoves.push_back(M);
  }
  for (unsigned M : NodeMoves) {
    unsigned X = getAlias(Moves[M].Src);
    unsigned Y = getAlias(Moves[M].Dst);
    unsigned Other = getAlias(N) == Y ? X : Y;
    Moves[M].State = MoveState::Frozen;
    if (State[Other] == NodeState::FreezeWL && !moveRelated(Other) &&
        Degree[Other] < K)
      pushSimplify(Other);
  }
}

void ColoringProblem::selectSpill() {
  // Drop or re-key entries until the top one is current.
  while (true) {
    SpillCand &Top = SpillHeap.front();
    unsigned N = Top.Node;
    if (State[N] == NodeState::SpillWL && Top.Stamp == SpillStamp[N]) {
      double Metric = spillMetric(N);
      if (Top.Metric == Metric)
        break;
      if (Top.Metric < Metric) { // risen since it was pushed
        Top.Metric = Metric;
        siftDownTop();
        continue;
      }
      // A later entry holds the fallen metric.
    }
    std::pop_heap(SpillHeap.begin(), SpillHeap.end(), std::greater<>());
    SpillHeap.pop_back();
  }
  unsigned N = SpillHeap.front().Node;
  std::pop_heap(SpillHeap.begin(), SpillHeap.end(), std::greater<>());
  SpillHeap.pop_back();
  --NumSpillWL;
  pushSimplify(N);
  freezeMoves(N);
}

void ColoringProblem::siftDownTop() {
  size_t I = 0, Size = SpillHeap.size();
  SpillCand X = SpillHeap[0];
  while (2 * I + 1 < Size) {
    size_t C = 2 * I + 1;
    if (C + 1 < Size && SpillHeap[C] > SpillHeap[C + 1])
      ++C;
    if (!(X > SpillHeap[C]))
      break;
    SpillHeap[I] = SpillHeap[C];
    I = C;
  }
  SpillHeap[I] = X;
}

void ColoringProblem::assignColors() {
  while (!SelectStack.empty()) {
    unsigned N = SelectStack.back();
    SelectStack.pop_back();
    std::bitset<NumPRegs> Used;
    for (unsigned A : AdjList[N]) {
      unsigned AA = getAlias(A);
      if (State[AA] == NodeState::Colored ||
          State[AA] == NodeState::Precolored)
        Used.set(Color[AA]);
    }
    unsigned Chosen = ~0u;
    for (unsigned R : TD.allocOrder(RC))
      if (!Used.test(R)) {
        Chosen = R;
        break;
      }
    if (Chosen == ~0u) {
      State[N] = NodeState::Spilled;
      SpilledNodes.push_back(N);
    } else {
      State[N] = NodeState::Colored;
      Color[N] = Chosen;
    }
  }
  for (unsigned N = K; N < NumNodes; ++N)
    if (State[N] == NodeState::Coalesced) {
      unsigned A = getAlias(N);
      if (State[A] == NodeState::Spilled) {
        State[N] = NodeState::Spilled;
        SpilledNodes.push_back(N);
      } else {
        Color[N] = Color[A];
      }
    }
}

void ColoringProblem::rewriteSpills() {
  // Give each spilled temporary a memory home; loads before uses, stores
  // after defs, a fresh block-local temp per reference.
  BitVector IsSpilled(F.numVRegs());
  obs::DecisionLog &DL = obs::DecisionLog::global();
  for (unsigned N : SpilledNodes) {
    unsigned V = NodeToVReg[N - K];
    IsSpilled.set(V);
    EverSpilledV.set(V);
    ++Stats.SpilledTemps;
    if (DL.enabled())
      DL.record(F, obs::DecisionKind::SpillWhole, V, obs::NoValue,
                obs::NoValue, "no color available; whole lifetime to memory");
  }
  std::vector<uint32_t> Out;
  for (Block &B : F.blocks()) {
    Out.clear();
    Out.reserve(B.size());
    bool Inserted = false;
    for (unsigned Idx = 0; Idx < B.size(); ++Idx) {
      Instr I = B.instrs()[Idx];
      const OpcodeInfo &Info = I.info();
      // One fresh temp per instruction per spilled vreg (shared between a
      // use and a def of the same vreg in the same instruction).
      unsigned CachedV = ~0u, CachedT = ~0u;
      auto FreshTemp = [&](unsigned V) {
        if (CachedV == V)
          return CachedT;
        unsigned T = F.newVReg(RC);
        CachedV = V;
        CachedT = T;
        return T;
      };
      bool DefSpilled = false;
      unsigned DefTemp = ~0u, DefV = ~0u;
      for (unsigned S = Info.NumDefs;
           S < unsigned(Info.NumDefs) + Info.NumUses; ++S) {
        Operand &Op = I.op(S);
        if (!Op.isVReg() || !IsSpilled.test(Op.vregId()) ||
            F.vregClass(Op.vregId()) != RC)
          continue;
        unsigned T = FreshTemp(Op.vregId());
        Instr Ld = Slots.makeLoad(Op.vregId(), 0, SpillKind::EvictLoad);
        Ld.op(0) = Operand::vreg(T);
        Out.push_back(B.makeInstr(Ld));
        Inserted = true;
        ++Stats.EvictLoads;
        Op = Operand::vreg(T);
      }
      if (Info.NumDefs == 1 && I.op(0).isVReg() &&
          IsSpilled.test(I.op(0).vregId()) &&
          F.vregClass(I.op(0).vregId()) == RC) {
        DefV = I.op(0).vregId();
        DefTemp = FreshTemp(DefV);
        I.op(0) = Operand::vreg(DefTemp);
        DefSpilled = true;
      }
      B.instrs()[Idx] = I; // rewritten in place: id preserved
      Out.push_back(B.instrId(Idx));
      if (DefSpilled) {
        Instr St = Slots.makeStore(DefV, 0, SpillKind::EvictStore);
        St.op(0) = Operand::vreg(DefTemp);
        Out.push_back(B.makeInstr(St));
        Inserted = true;
        ++Stats.EvictStores;
      }
    }
    if (Inserted)
      B.setInstrIds(Out);
  }
  // Mark all newly created temps as unspillable.
  BitVector NewST(F.numVRegs());
  SpillTemp.forEachSetBit([&](unsigned V) { NewST.set(V); });
  for (unsigned V = IsSpilled.size(); V < F.numVRegs(); ++V)
    NewST.set(V);
  SpillTemp = NewST;
}

void ColoringProblem::rewriteOperands() {
  for (Block &B : F.blocks())
    for (Instr &I : B.instrs())
      for (unsigned S = 0; S < 3; ++S) {
        Operand &Op = I.op(S);
        if (!Op.isVReg() || F.vregClass(Op.vregId()) != RC)
          continue;
        unsigned N = VRegToNode[Op.vregId()];
        unsigned A = getAlias(N);
        assert(Color[A] != ~0u && "uncolored node survives");
        Op = Operand::preg(Color[A]);
      }
}

void ColoringProblem::run() {
  SpillTemp.resize(F.numVRegs());
  EverSpilledV.resize(F.numVRegs());
  while (true) {
    ++Stats.ColoringIterations;
    obs::ScopedSpan Round("coloring.round", "phase");
    LSRA_LOG(3, "coloring round=%u vregs=%u", Stats.ColoringIterations,
             F.numVRegs());
    initRound();
    build();
    makeWorklist();
    while (!SimplifyWL.empty() || !WorklistMoves.empty() ||
           !FreezeWL.empty() || NumSpillWL) {
      if (!SimplifyWL.empty())
        simplify();
      else if (!WorklistMoves.empty())
        coalesce();
      else if (!FreezeWL.empty())
        freeze();
      else
        selectSpill();
    }
    assignColors();
    if (SpilledNodes.empty())
      break;
    rewriteSpills();
  }
  rewriteOperands();
}

} // namespace

AllocStats lsra::runGraphColoring(Function &F, const TargetDesc &TD,
                                  const AllocOptions &Opts) {
  FunctionAnalyses FA(F, TD);
  return runGraphColoring(F, TD, Opts, FA);
}

AllocStats lsra::runGraphColoring(Function &F, const TargetDesc &TD,
                                  const AllocOptions &Opts,
                                  FunctionAnalyses &FA) {
  (void)Opts;
  assert(F.CallsLowered && "lower calls before register allocation");
  assert(&FA.function() == &F && "analyses are for a different function");
  AllocStats Stats;
  Stats.RegCandidates = F.numVRegs();
  const Liveness &LV = FA.liveness();
  const LoopInfo &LI = FA.loops();
  SpillSlots Slots(F);
  // The two register files are two separate coloring problems (§3).
  {
    ColoringProblem Ints(F, TD, RegClass::Int, LV, LI, Slots, Stats);
    Ints.run();
  }
  {
    ColoringProblem Fps(F, TD, RegClass::Float, LV, LI, Slots, Stats);
    Fps.run();
  }
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled()) {
    CR.counter("coloring.rounds").add(Stats.ColoringIterations);
    CR.counter("coloring.interference_edges").add(Stats.InterferenceEdges);
  }
  return Stats;
}
