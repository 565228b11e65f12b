//===- obs/DecisionLog.cpp ------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/DecisionLog.h"

#include "ir/Function.h"
#include "obs/Json.h"

#include <algorithm>
#include <ostream>

using namespace lsra;
using namespace lsra::obs;

const char *lsra::obs::decisionKindName(DecisionKind K) {
  switch (K) {
  case DecisionKind::EvictStore:
    return "evict-store";
  case DecisionKind::EvictConvention:
    return "evict-convention";
  case DecisionKind::EvictMove:
    return "evict-move";
  case DecisionKind::EvictDrop:
    return "evict-drop";
  case DecisionKind::SecondChanceLoad:
    return "second-chance-load";
  case DecisionKind::SecondChanceDef:
    return "second-chance-def";
  case DecisionKind::CoalesceMove:
    return "coalesce-move";
  case DecisionKind::SpillWhole:
    return "spill-whole";
  case DecisionKind::CacheHit:
    return "cache-hit";
  }
  return "unknown";
}

std::string lsra::obs::pregDisplayName(unsigned P) {
  if (P == NoValue)
    return "mem";
  // append, not "$f" + to_string(...): GCC 12's Release inlining of that
  // concatenation trips a false -Wrestrict.
  std::string Name = P < NumIntPRegs ? "$" : "$f";
  return Name.append(std::to_string(P < NumIntPRegs ? P : P - NumIntPRegs));
}

DecisionLog &DecisionLog::global() {
  static DecisionLog L;
  return L;
}

DecisionLog::ThreadBuf &DecisionLog::localBuf() {
  struct Cache {
    DecisionLog *L = nullptr;
    uint64_t Gen = 0;
    ThreadBuf *B = nullptr;
  };
  static thread_local Cache C;
  uint64_t Gen = Generation.load(std::memory_order_acquire);
  if (C.L == this && C.Gen == Gen && C.B)
    return *C.B;
  auto Buf = std::make_unique<ThreadBuf>();
  ThreadBuf *Raw = Buf.get();
  {
    std::lock_guard<std::mutex> L(Mu);
    Buffers.push_back(std::move(Buf));
  }
  C = {this, Gen, Raw};
  return *Raw;
}

void DecisionLog::record(const Function &F, DecisionKind K, unsigned Temp,
                         unsigned Pos, unsigned Reg, const char *Why) {
  ThreadBuf &B = localBuf();
  std::lock_guard<std::mutex> L(B.Mu);
  B.Records.push_back({F.name(), K, Temp, Pos, Reg, Why, B.NextSeq++});
}

std::vector<Decision> DecisionLog::snapshot() const {
  std::vector<Decision> Out;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &B : Buffers) {
      std::lock_guard<std::mutex> BL(B->Mu);
      Out.insert(Out.end(), B->Records.begin(), B->Records.end());
    }
  }
  // Each function is allocated by exactly one thread, so its records share
  // one buffer and their Seq order is the decision order; sorting by
  // (function, Seq) therefore yields the same log for any thread count.
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Decision &A, const Decision &B) {
                     if (A.Fn != B.Fn)
                       return A.Fn < B.Fn;
                     return A.Seq < B.Seq;
                   });
  return Out;
}

void DecisionLog::writeText(std::ostream &OS) const {
  std::string LastFn;
  for (const Decision &D : snapshot()) {
    if (D.Fn != LastFn) {
      OS << D.Fn << ":\n";
      LastFn = D.Fn;
    }
    OS << "  ";
    if (D.Pos == NoValue)
      OS << "@-";
    else
      OS << "@" << D.Pos;
    OS << " " << decisionKindName(D.Kind);
    if (D.Temp != NoValue)
      OS << " v" << D.Temp;
    OS << " -> " << pregDisplayName(D.Reg) << "  (" << D.Why << ")\n";
  }
}

void DecisionLog::writeJsonl(std::ostream &OS) const {
  for (const Decision &D : snapshot()) {
    JsonObject O;
    O.field("kind", "decision")
        .field("fn", D.Fn)
        .field("event", decisionKindName(D.Kind))
        .field("split", isLifetimeSplit(D.Kind) ? 1 : 0)
        .field("why", D.Why);
    if (D.Temp != NoValue)
      O.field("temp", D.Temp);
    if (D.Pos != NoValue)
      O.field("pos", D.Pos);
    if (D.Reg != NoValue)
      O.field("reg", D.Reg).field("reg_name", pregDisplayName(D.Reg));
    OS << O.str() << "\n";
  }
}

void DecisionLog::reset() {
  std::lock_guard<std::mutex> L(Mu);
  Generation.fetch_add(1, std::memory_order_acq_rel);
  Buffers.clear();
}
