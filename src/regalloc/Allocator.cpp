//===- regalloc/Allocator.cpp ---------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "regalloc/Allocator.h"

#include "analysis/AnalysisCache.h"
#include "cache/CompileCache.h"
#include "check/Clone.h"
#include "ir/Printer.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "passes/Peephole.h"
#include "passes/SpillCleanup.h"
#include "regalloc/Registry.h"
#include "support/ParallelFor.h"
#include "support/Timer.h"
#include "target/CalleeSave.h"

#include <algorithm>
#include <unordered_map>

using namespace lsra;

const char *lsra::allocatorName(AllocatorKind K) {
  return AllocatorRegistry::global().info(K).Name;
}

bool lsra::parseAllocatorName(const std::string &Name, AllocatorKind &Out) {
  const AllocatorInfo *I = AllocatorRegistry::global().findByName(Name);
  if (!I)
    return false;
  Out = I->Kind;
  return true;
}

AllocStats &AllocStats::operator+=(const AllocStats &R) {
  EvictLoads += R.EvictLoads;
  EvictStores += R.EvictStores;
  EvictMoves += R.EvictMoves;
  ResolveLoads += R.ResolveLoads;
  ResolveStores += R.ResolveStores;
  ResolveMoves += R.ResolveMoves;
  RegCandidates += R.RegCandidates;
  SpilledTemps += R.SpilledTemps;
  LifetimeSplits += R.LifetimeSplits;
  MovesCoalesced += R.MovesCoalesced;
  SplitEdges += R.SplitEdges;
  DataflowIterations += R.DataflowIterations;
  ColoringIterations += R.ColoringIterations;
  InterferenceEdges += R.InterferenceEdges;
  AllocSeconds += R.AllocSeconds;
  // WallSeconds is intentionally NOT accumulated: it is elapsed module
  // time, set exactly once by the module-level driver. Summing it when a
  // driver merges per-function stats — or when compileModule folds in the
  // stats of the allocateModule call it wraps — would double-count the
  // same elapsed interval.
  return *this;
}

namespace {

/// Total number of lifetime holes (gaps between segments) over every
/// temporary — the quantity §2.2's hole-packing feeds on.
unsigned countLifetimeHoles(const LifetimeAnalysis &LT) {
  unsigned Holes = 0;
  for (unsigned V = 0; V < LT.numVRegs(); ++V) {
    size_t Segs = LT.vreg(V).Segs.size();
    if (Segs > 1)
      Holes += static_cast<unsigned>(Segs - 1);
  }
  return Holes;
}

} // namespace

AllocStats lsra::allocateFunction(Function &F, const TargetDesc &TD,
                                  AllocatorKind K, const AllocOptions &Opts) {
  FunctionAnalyses FA(F, TD);
  return allocateFunction(F, TD, K, Opts, FA);
}

AllocStats lsra::allocateFunction(Function &F, const TargetDesc &TD,
                                  AllocatorKind K, const AllocOptions &Opts,
                                  FunctionAnalyses &FA) {
  assert(F.CallsLowered && "lower calls before register allocation");
  assert(&FA.function() == &F && "analyses are for a different function");
  obs::ScopedSpan FnSpan("alloc:", F.name(), "function");
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  // Warm the analysis cache with everything the chosen allocator consumes,
  // then time only the core allocation — the paper likewise reports times
  // "after setup activities common to both allocators".
  const AllocatorInfo &Info = AllocatorRegistry::global().info(K);
  if (Info.needs(CapNeedsLiveness)) {
    obs::ScopedSpan S("liveness", "phase");
    FA.liveness();
  }
  // Lifetimes weight references by loop depth, so loops come first and
  // get their own span either way.
  if (Info.needs(CapNeedsLoops) || Info.needs(CapNeedsLifetimes)) {
    obs::ScopedSpan S("loops", "phase");
    FA.loops();
  }
  if (Info.needs(CapNeedsLifetimes)) {
    obs::ScopedSpan S("lifetimes", "phase");
    FA.lifetimes();
    if (CR.enabled())
      CR.counter("lifetime.holes").add(countLifetimeHoles(FA.lifetimes()));
  }
  Timer T;
  T.start();
  AllocStats Stats;
  {
    obs::ScopedSpan Scan("scan", "phase");
    Stats = Info.Run(F, TD, Opts, FA);
  }
  T.stop();
  Stats.AllocSeconds = T.seconds();
  // The allocator rewrote the instruction stream (and resolution may have
  // added blocks); everything cached above is stale.
  FA.invalidate();
  finishAllocation(F, TD, Opts);
  if (CR.enabled()) {
    CR.counter("alloc.functions").add(1);
    CR.histogram("alloc.time.function_us")
        .record(obs::secondsToUs(Stats.AllocSeconds));
  }
  LSRA_LOG(2, "alloc %s [%s]: candidates=%u spilled=%u static-spill=%u "
              "splits=%u",
           F.name().c_str(), allocatorName(K), Stats.RegCandidates,
           Stats.SpilledTemps, Stats.staticSpillInstrs(),
           Stats.LifetimeSplits);
  return Stats;
}

void lsra::finishAllocation(Function &F, const TargetDesc &TD,
                            const AllocOptions &Opts) {
  if (Opts.SpillCleanup) {
    obs::ScopedSpan S("spill-cleanup", "pass");
    cleanupSpillCode(F, TD);
  }
  if (Opts.RunPeephole) {
    obs::ScopedSpan S("peephole", "pass");
    runPeephole(F);
  }
  if (Opts.CalleeSaves) {
    obs::ScopedSpan S("callee-saves", "pass");
    insertCalleeSaves(F, TD);
  }
}

unsigned lsra::resolveThreadCount(unsigned Requested, unsigned NumItems) {
  unsigned T = Requested == 0 ? defaultThreadCount() : Requested;
  return std::max(1u, std::min(T, std::max(NumItems, 1u)));
}

namespace {

/// Build a cache entry from the allocated function \p F of \p M: a clone of
/// the body plus the callee-name table needed to remap module-relative
/// func-ref operands when the entry hits in a different module.
std::shared_ptr<const cache::CachedCompile>
snapshotAllocatedFunction(const Module &M, const Function &F,
                          const AllocStats &Stats) {
  auto Entry = std::make_shared<cache::CachedCompile>();
  auto Clone = std::make_unique<Function>(F.id(), F.name());
  cloneFunctionInto(F, *Clone);
  for (const Block &B : Clone->blocks())
    for (const Instr &I : B.instrs())
      for (unsigned O = 0; O < 3; ++O)
        if (I.op(O).isFunc()) {
          unsigned Id = I.op(O).funcId();
          Entry->Callees.emplace_back(Id, M.function(Id).name());
        }
  Entry->Fn = std::move(Clone);
  Entry->Stats = Stats;
  Entry->Bytes = cache::estimateFunctionBytes(*Entry->Fn) +
                 sizeof(cache::CachedCompile);
  return Entry;
}

/// Rebuild \p F in place from the cached body \p E, remapping the entry's
/// module-relative func-ref operands into \p M by callee name. The function
/// table is never touched, so parallel workers resolving callee names
/// through it stay race-free. False (with \p F untouched) when a callee
/// cannot be resolved — the caller then falls back to a fresh allocation.
bool materialiseCachedFunction(Module &M, Function &F,
                               const cache::CachedCompile &E) {
  std::unordered_map<unsigned, unsigned> Remap;
  for (const auto &C : E.Callees) {
    Function *Callee = M.findFunction(C.second);
    if (!Callee)
      return false;
    Remap.emplace(C.first, Callee->id());
  }
  F.releaseBody();
  cloneFunctionInto(*E.Fn, F);
  for (Block &B : F.blocks())
    for (Instr &I : B.instrs())
      for (unsigned O = 0; O < 3; ++O)
        if (I.op(O).isFunc())
          I.op(O) = Operand::func(Remap.at(I.op(O).funcId()));
  return true;
}

/// The shared hit/miss path: a hit rebuilds the function in place, a miss
/// allocates it and offers the result to the cache.
AllocStats allocateFunctionCached(Module &M, unsigned Idx,
                                  const TargetDesc &TD, AllocatorKind K,
                                  const AllocOptions &AO,
                                  const ExecOptions &EO,
                                  FunctionAnalyses *FA) {
  Function &F = M.function(Idx);
  auto Allocate = [&] {
    return FA ? allocateFunction(F, TD, K, AO, *FA)
              : allocateFunction(F, TD, K, AO);
  };
  if (!EO.Cache)
    return Allocate();
  std::string Canonical = toString(F, &M);
  cache::CacheKey Key = cache::makeFunctionKey(Canonical, AO.fingerprint(),
                                               K, TD.fingerprint());
  if (auto Hit = EO.Cache->lookup(Key)) {
    if (materialiseCachedFunction(M, F, *Hit)) {
      obs::DecisionLog &DL = obs::DecisionLog::global();
      if (DL.enabled())
        DL.record(F, obs::DecisionKind::CacheHit, obs::NoValue,
                  obs::NoValue, obs::NoValue,
                  "allocated body served from the compile cache");
      return Hit->Stats;
    }
  }
  AllocStats Stats = Allocate();
  EO.Cache->insert(Key, snapshotAllocatedFunction(M, F, Stats));
  return Stats;
}

} // namespace

AllocStats lsra::allocateFunctionInModule(Module &M, unsigned Idx,
                                          const TargetDesc &TD,
                                          AllocatorKind K,
                                          const AllocOptions &AO,
                                          const ExecOptions &EO,
                                          FunctionAnalyses *FA) {
  return allocateFunctionCached(M, Idx, TD, K, AO, EO, FA);
}

AllocStats lsra::allocateModule(Module &M, const TargetDesc &TD,
                                AllocatorKind K, const AllocOptions &AO,
                                const ExecOptions &EO) {
  return allocateModule(M, TD, K, AO, EO, nullptr);
}

AllocStats lsra::allocateModule(Module &M, const TargetDesc &TD,
                                AllocatorKind K, const AllocOptions &AO,
                                const ExecOptions &EO,
                                const PrepareFunction &Prepare) {
  Timer Wall;
  Wall.start();
  AllocStats Total;
  unsigned N = M.numFunctions();
  unsigned Threads = resolveThreadCount(EO.Threads, N);
  auto AllocateOne = [&](unsigned I) {
    if (!Prepare)
      return allocateFunctionCached(M, I, TD, K, AO, EO, nullptr);
    FunctionAnalyses FA(M.function(I), TD);
    Prepare(M.function(I), FA);
    return allocateFunctionCached(M, I, TD, K, AO, EO, &FA);
  };
  if (Threads <= 1) {
    for (unsigned I = 0; I < N; ++I)
      Total += AllocateOne(I);
  } else {
    // Functions are independent (each allocator mutates only its own
    // Function); merge the per-function statistics in index order so the
    // totals match the sequential run exactly.
    std::vector<AllocStats> Per(N);
    parallelFor(N, Threads, [&](unsigned I) { Per[I] = AllocateOne(I); });
    for (const AllocStats &S : Per)
      Total += S;
  }
  Wall.stop();
  Total.WallSeconds = Wall.seconds();
  return Total;
}
