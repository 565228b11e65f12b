//===- analysis/AnalysisCache.cpp -----------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"

using namespace lsra;

const std::vector<unsigned> &FunctionAnalyses::rpo() {
  if (!RPO)
    RPO = std::make_unique<std::vector<unsigned>>(reversePostOrder(F));
  return *RPO;
}

const Numbering &FunctionAnalyses::numbering() {
  if (!Num)
    Num = std::make_unique<Numbering>(F);
  return *Num;
}

const Liveness &FunctionAnalyses::liveness() {
  if (!LV)
    LV = std::make_unique<Liveness>(F, TD, &rpo());
  return *LV;
}

const Dominators &FunctionAnalyses::dominators() {
  if (!Dom)
    Dom = std::make_unique<Dominators>(F, rpo());
  return *Dom;
}

const LoopInfo &FunctionAnalyses::loops() {
  if (!LI)
    LI = std::make_unique<LoopInfo>(F, dominators());
  return *LI;
}

const LifetimeAnalysis &FunctionAnalyses::lifetimes() {
  if (!LT)
    LT = std::make_unique<LifetimeAnalysis>(F, numbering(), liveness(),
                                            loops(), TD);
  return *LT;
}

void FunctionAnalyses::invalidate() {
  // Destroy in reverse dependency order.
  LT.reset();
  LI.reset();
  Dom.reset();
  LV.reset();
  Num.reset();
  RPO.reset();
}

void FunctionAnalyses::adoptLiveness(std::unique_ptr<Liveness> NewLV) {
  assert(NewLV && NewLV->numVRegs() == F.numVRegs() &&
         "liveness of another function");
  LT.reset();
  Num.reset();
  LV = std::move(NewLV);
}
