//===- driver/Pipeline.cpp ------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/AnalysisCache.h"
#include "cache/CompileCache.h"
#include "check/Clone.h"
#include "check/Verifier.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "passes/DCE.h"
#include "support/ParallelFor.h"
#include "support/Timer.h"
#include "target/LowerCalls.h"

#include <condition_variable>
#include <mutex>

using namespace lsra;

AllocStats lsra::compileModule(Module &M, const TargetDesc &TD,
                               AllocatorKind K, const AllocOptions &AO,
                               const ExecOptions &EO) {
  unsigned N = M.numFunctions();
  unsigned Threads = resolveThreadCount(EO.Threads, N);
  LSRA_LOG(1, "compileModule: %u functions, allocator=%s, threads=%u", N,
           allocatorName(K), Threads);
  // WallSeconds is measured exactly once, here, over the whole pipeline
  // (lowering + DCE + allocation) in both the sequential and the parallel
  // path; the alloc-only wall allocateModule records is overwritten, never
  // added (AllocStats::operator+= deliberately skips WallSeconds).
  Timer Wall;
  Wall.start();
  if (Threads <= 1) {
    obs::ScopedSpan S("lowerCalls", "pass", EO.ReqTrace);
    lowerCalls(M);
  } else {
    // Lowering is per-function, so run it on the workers.
    parallelFor(N, Threads, [&](unsigned I) {
      obs::ScopedSpan S("lowerCalls", "pass");
      lowerCalls(M.function(I));
    });
  }
  // Each function's DCE runs right before its allocation, in the same
  // worker, and hands its liveness to the allocator.
  obs::RequestTrace *DceTrace = Threads <= 1 ? EO.ReqTrace : nullptr;
  AllocStats Total;
  {
    obs::ScopedSpan S("allocateModule", "pass", EO.ReqTrace);
    Total = allocateModule(M, TD, K, AO, EO,
                           [&](Function &F, FunctionAnalyses &FA) {
                             obs::ScopedSpan S("dce", "pass", DceTrace);
                             eliminateDeadCode(F, TD, FA);
                           });
  }
  Wall.stop();
  Total.WallSeconds = Wall.seconds();
  return Total;
}

AllocStats lsra::compileModuleStreaming(
    Module &M, const TargetDesc &TD, AllocatorKind K,
    const std::function<void(Module &, unsigned)> &BuildBody,
    const std::function<void(unsigned, const Function &)> &Emit,
    const AllocOptions &AO, const ExecOptions &EO, const StreamOptions &SO) {
  unsigned N = M.numFunctions();
  unsigned Threads = resolveThreadCount(EO.Threads, N);
  LSRA_LOG(1, "compileModuleStreaming: %u functions, allocator=%s, threads=%u",
           N, allocatorName(K), Threads);
  Timer Wall;
  Wall.start();

  // Merged in index order at the end, so statistics are bit-identical for
  // any thread count (same guarantee allocateModule gives).
  std::vector<AllocStats> PerFn(N);

  auto CompileOne = [&](unsigned I) {
    Function &F = M.function(I);
    if (BuildBody)
      BuildBody(M, I);
    lowerCalls(F);
    FunctionAnalyses FA(F, TD);
    eliminateDeadCode(F, TD, FA);
    PerFn[I] = allocateFunctionInModule(M, I, TD, K, AO, EO, &FA);
  };
  auto EmitAndRelease = [&](unsigned I) {
    Function &F = M.function(I);
    if (Emit)
      Emit(I, F);
    F.releaseBody();
  };

  if (Threads <= 1) {
    for (unsigned I = 0; I < N; ++I) {
      CompileOne(I);
      EmitAndRelease(I);
    }
  } else {
    unsigned ChunkSize = std::max(SO.ChunkSize, 1u);
    // The window must cover at least one chunk so the worker holding the
    // emit frontier's chunk can always finish it (chunks are claimed in
    // increasing order, so that chunk is claimed before any later one).
    unsigned Window =
        std::max(Threads * ChunkSize * std::max(SO.WindowChunks, 1u),
                 ChunkSize);
    std::mutex Mu;
    std::condition_variable Cv;
    unsigned NextEmit = 0; // next function index to emit, under Mu
    std::vector<uint8_t> Compiled(N, 0);

    parallelForChunked(N, Threads, ChunkSize, [&](unsigned I) {
      {
        // Throttle: keep the set of retained (compiled or in-progress,
        // not yet emitted) bodies within the window.
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return I < NextEmit + Window; });
      }
      CompileOne(I);
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Compiled[I] = 1;
        if (I != NextEmit)
          return;
        // Drain the contiguous run of compiled functions at the frontier.
        // Emission is serialised under the lock; it is cheap relative to
        // compilation and must be ordered anyway.
        while (NextEmit < N && Compiled[NextEmit]) {
          EmitAndRelease(NextEmit);
          ++NextEmit;
        }
        Cv.notify_all();
      }
    });
  }

  AllocStats Total;
  for (const AllocStats &S : PerFn)
    Total += S;
  Wall.stop();
  Total.WallSeconds = Wall.seconds();
  return Total;
}

TextCompileResult lsra::compileTextModule(const std::string &IRText,
                                          const TargetDesc &TD,
                                          AllocatorKind K,
                                          const AllocOptions &AO,
                                          const ExecOptions &EO,
                                          bool RunAfter) {
  TextCompileResult R;
  obs::ScopedSpan Span("compileText", "request");
  // Module-level cache: the raw request text is the content address, so a
  // hit costs one hash + one lookup and skips parsing entirely.
  cache::CacheKey ModKey;
  if (EO.Cache) {
    std::shared_ptr<const cache::CachedCompile> Hit;
    {
      obs::ScopedSpan S("cache-probe", "pass", EO.ReqTrace);
      ModKey = cache::makeModuleKey(IRText, AO.fingerprint(), K,
                                    TD.fingerprint());
      Hit = EO.Cache->lookup(ModKey);
    }
    if (!Hit && EO.Cache->l2()) {
      // L1 missed; the shared segment may still have the module from
      // another process (or an earlier life of this one). A hit here
      // promotes into L1, so the next probe stops one phase earlier.
      obs::ScopedSpan S("l2-probe", "pass", EO.ReqTrace);
      Hit = EO.Cache->lookupL2Fill(ModKey);
      R.CacheL2 = Hit != nullptr;
    }
    if (Hit) {
      R.AllocatedText = Hit->AllocatedText;
      R.Stats = Hit->Stats;
      R.CacheHit = true;
      R.Ok = true;
      if (RunAfter) {
        // Dynamic counts need the module back; the allocated text
        // round-trips (including the initial memory image).
        ParseResult P = parseModule(R.AllocatedText);
        if (P.ok()) {
          R.Run = runAllocated(*P.M, TD);
          R.Ran = true;
        }
      }
      return R;
    }
  }
  ParseResult P;
  {
    obs::ScopedSpan S("parse", "pass", EO.ReqTrace);
    P = parseModule(IRText);
  }
  if (!P.ok()) {
    R.Error = P.Error;
    R.ErrLine = P.ErrLine;
    R.ErrCol = P.ErrCol;
    R.ErrToken = P.ErrToken;
    return R;
  }
  std::string Diag = verifyModule(*P.M);
  if (!Diag.empty()) {
    R.Error = "verify: " + Diag;
    return R;
  }
  // For translation validation we need the exact module the allocator
  // consumed. Lowering and DCE are idempotent, so running them here first
  // (compileModule will see already-lowered functions) lets us snapshot it.
  std::unique_ptr<Module> Snapshot;
  if (EO.VerifyAlloc) {
    lowerCalls(*P.M);
    eliminateDeadCode(*P.M, TD);
    Snapshot = cloneModule(*P.M);
  }
  {
    obs::ScopedSpan S("alloc", "pass", EO.ReqTrace);
    R.Stats = compileModule(*P.M, TD, K, AO, EO);
  }
  Diag = checkAllocated(*P.M);
  if (!Diag.empty()) {
    R.Error = "post-allocation verify: " + Diag;
    return R;
  }
  if (Snapshot) {
    obs::ScopedSpan VSpan("verifyAllocation", "pass");
    check::VerifyAllocResult VR = check::verifyAllocation(*Snapshot, *P.M, TD);
    if (!VR.ok()) {
      R.Error = "allocation verify: " + VR.str();
      return R;
    }
  }
  {
    obs::ScopedSpan S("emit", "pass", EO.ReqTrace);
    printModule(R.AllocatedText, *P.M);
    // printModule reserves an estimate; callers keep this text (cache
    // entries, replies, result lists), so hand it back at its exact size.
    R.AllocatedText.shrink_to_fit();
  }
  R.Ok = true;
  if (EO.Cache) {
    auto Entry = std::make_shared<cache::CachedCompile>();
    Entry->AllocatedText = R.AllocatedText;
    Entry->Stats = R.Stats;
    Entry->Bytes = IRText.size() + R.AllocatedText.size() +
                   sizeof(cache::CachedCompile);
    EO.Cache->insert(ModKey, std::move(Entry));
  }
  if (RunAfter) {
    R.Run = runAllocated(*P.M, TD);
    R.Ran = true;
  }
  return R;
}

std::string lsra::checkAllocated(const Module &M) {
  VerifyOptions VO;
  VO.RequireAllocated = true;
  VO.RequireLoweredCalls = true;
  return verifyModule(M, VO);
}

RunResult lsra::runReference(Module &M, const TargetDesc &TD) {
  lowerCalls(M);
  eliminateDeadCode(M, TD);
  VM::Options VO;
  VO.MaxInstrs = RunInstrBudget;
  VM Machine(M, TD, VO);
  return Machine.run();
}

RunResult lsra::runAllocated(const Module &M, const TargetDesc &TD) {
  VM::Options VO;
  VO.MaxInstrs = RunInstrBudget;
  VO.PoisonCallerSaved = true;
  VO.CheckCalleeSaved = true;
  VM Machine(M, TD, VO);
  return Machine.run();
}
