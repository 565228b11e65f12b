//===- check/Fuzz.cpp -----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"

#include "cache/CompileCache.h"
#include "check/Clone.h"
#include "check/Reduce.h"
#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/IRVerifier.h"
#include "passes/DCE.h"
#include "regalloc/Registry.h"
#include "support/ParallelFor.h"
#include "target/LowerCalls.h"
#include "vm/VM.h"

#include <atomic>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

namespace {

/// The VM budget of both oracle runs.
VM::Options refOptions() {
  VM::Options O;
  O.MaxInstrs = RunInstrBudget;
  return O;
}

OracleResult fail(const char *Kind, std::string Detail) {
  OracleResult R;
  R.St = OracleResult::Fail;
  R.Kind = Kind;
  R.Detail = std::move(Detail);
  return R;
}

/// Cache-differential oracle: compile \p Text twice against the shared
/// \p Cache — cold (populating it, with the allocation verifier on) and
/// warm — and demand that the warm compile is a hit whose allocated text
/// and statistics are byte-identical to the cold result. Any divergence
/// means the cache key is too coarse (two distinct compiles collided) or
/// the hit path corrupted the stored module. Empty string = pass.
std::string runCacheDifferential(const std::string &Text, AllocatorKind K,
                                 unsigned RegLimit,
                                 cache::CompileCache &Cache) {
  TargetDesc TD = targetForRegLimit(RegLimit);
  ExecOptions EO;
  EO.VerifyAlloc = true;
  EO.Cache = &Cache;
  TextCompileResult Cold = compileTextModule(Text, TD, K, {}, EO);
  if (!Cold.Ok)
    return "cold compile failed: " + Cold.Error;
  TextCompileResult Warm = compileTextModule(Text, TD, K, {}, EO);
  if (!Warm.Ok)
    return "warm compile failed: " + Warm.Error;
  if (!Warm.CacheHit)
    return "second compile of identical text missed the cache";
  if (Warm.AllocatedText != Cold.AllocatedText)
    return "cached allocated text differs from the cold compile";
  if (Warm.Stats.SpilledTemps != Cold.Stats.SpilledTemps ||
      Warm.Stats.RegCandidates != Cold.Stats.RegCandidates ||
      Warm.Stats.MovesCoalesced != Cold.Stats.MovesCoalesced ||
      Warm.Stats.LifetimeSplits != Cold.Stats.LifetimeSplits)
    return "cached statistics differ from the cold compile";
  return "";
}

/// The oracle's checks of one allocated module \p AM of \p P: the
/// structural verifier, the allocation verifier, then the allocated run
/// (caller-saved registers poisoned, callee-saved ones checked) against the
/// reference run.
OracleResult checkAllocation(const PreparedProgram &P, const Module &AM) {
  const TargetDesc &TD = P.TD;
  std::string Diag = checkAllocated(AM);
  if (!Diag.empty())
    return fail("structural", Diag);

  VerifyAllocResult VR = verifyAllocation(*P.M, AM, TD);
  if (!VR.ok())
    return fail("verifier", VR.str());

  VM::Options GotOpts = refOptions();
  GotOpts.PoisonCallerSaved = true;
  GotOpts.CheckCalleeSaved = true;
  RunResult Got = VM(AM, TD, GotOpts).run();
  const RunResult &Ref = P.Ref;
  if (Ref.Ok != Got.Ok)
    return fail("vm-error", std::string("reference ") +
                                (Ref.Ok ? "succeeded" : "failed") +
                                " but allocated run " +
                                (Got.Ok ? "succeeded" : "failed: " + Got.Error));
  if (!Ref.Ok)
    return {}; // both runs failed as the program demands; no oracle
  if (Ref.ReturnValue != Got.ReturnValue)
    return fail("mismatch", "return value " + std::to_string(Got.ReturnValue) +
                                " != reference " +
                                std::to_string(Ref.ReturnValue));
  if (Ref.Output != Got.Output) {
    unsigned I = 0;
    while (I < Ref.Output.size() && I < Got.Output.size() &&
           Ref.Output[I] == Got.Output[I])
      ++I;
    std::ostringstream OS;
    OS << "output trace diverges at element " << I << " (reference has "
       << Ref.Output.size() << " elements, allocated " << Got.Output.size()
       << ")";
    return fail("mismatch", OS.str());
  }
  return {};
}

} // namespace

PreparedProgram lsra::check::prepareOracle(const std::string &IRText,
                                           unsigned RegLimit) {
  PreparedProgram P;
  ParseResult Parsed = parseModule(IRText);
  if (!Parsed.ok()) {
    P.Malformed.St = OracleResult::Malformed;
    P.Malformed.Detail = "parse: " + Parsed.Error;
    return P;
  }
  std::string Diag = verifyModule(*Parsed.M);
  if (!Diag.empty()) {
    P.Malformed.St = OracleResult::Malformed;
    P.Malformed.Detail = "verify: " + Diag;
    return P;
  }

  P.TD = targetForRegLimit(RegLimit);
  // Lower and DCE in place, leaving P.M as the exact module every allocator
  // consumes — the verifier's Orig snapshot. The instruction budget is far
  // above any generated program but low enough that reduction candidates
  // which break a loop counter reject quickly.
  P.M = std::move(Parsed.M);
  lowerCalls(*P.M);
  eliminateDeadCode(*P.M, P.TD);
  P.Ref = VM(*P.M, P.TD, refOptions()).run();
  return P;
}

std::vector<OracleResult>
lsra::check::runOracleCleanups(const PreparedProgram &P, AllocatorKind K,
                               const std::vector<bool> &Cleanups,
                               std::vector<std::unique_ptr<Module>> *Allocated) {
  if (!P.M)
    return std::vector<OracleResult>(Cleanups.size(), P.Malformed);
  // The scan reads none of the tail's options, so one scan with the tail
  // off serves every cleanup setting.
  AllocOptions ScanOnly;
  ScanOnly.RunPeephole = false;
  ScanOnly.CalleeSaves = false;
  std::unique_ptr<Module> Scanned = cloneModule(*P.M);
  allocateModule(*Scanned, P.TD, K, ScanOnly);

  std::vector<OracleResult> Verdicts;
  for (size_t I = 0; I < Cleanups.size(); ++I) {
    // The last setting finishes the scanned module itself.
    std::unique_ptr<Module> AM = I + 1 < Cleanups.size()
                                     ? cloneModule(*Scanned)
                                     : std::move(Scanned);
    AllocOptions AO;
    AO.SpillCleanup = Cleanups[I];
    for (unsigned F = 0; F < AM->numFunctions(); ++F)
      finishAllocation(AM->function(F), P.TD, AO);
    Verdicts.push_back(checkAllocation(P, *AM));
    if (Allocated)
      Allocated->push_back(std::move(AM));
  }
  return Verdicts;
}

OracleResult lsra::check::runOracle(const PreparedProgram &P, AllocatorKind K,
                                    bool SpillCleanup) {
  return runOracleCleanups(P, K, {SpillCleanup}).front();
}

OracleResult lsra::check::runOracle(const std::string &IRText, AllocatorKind K,
                                    unsigned RegLimit, bool SpillCleanup) {
  return runOracle(prepareOracle(IRText, RegLimit), K, SpillCleanup);
}

namespace {

std::string generateProgram(uint64_t Seed, const RandomProgramOptions &PO) {
  std::unique_ptr<Module> M = buildRandomProgram(Seed, PO);
  std::ostringstream OS;
  printModule(OS, *M);
  return OS.str();
}

/// One differential fuzz run. Program I is two work items for parallelFor:
/// its oracle grid (item 2I) and its cache-differential step (item 2I+1).
/// Items are claimed in index order, so one thread runs them in the order
/// of the sequential loop. With more threads the grids overlap, while the
/// cache steps still run one at a time in program order: they share one
/// cache whose budget is finite, and out of order an insert could evict a
/// cold entry before its warm lookup. A program is committed to the report
/// (findings, reductions, corpus files, progress lines) once both of its
/// items are done and every earlier program is committed.
class FuzzRun {
public:
  FuzzRun(const FuzzOptions &Opts, std::ostream *Progress)
      : Opts(Opts), Progress(Progress) {
    if (Opts.WithSpillCleanup)
      Cleanups.push_back(true);
    Allocators = Opts.Allocators;
    if (Allocators.empty())
      Allocators = AllocatorRegistry::global().kinds();
    // One cache for the whole run, so cross-program (and cross-allocator)
    // collisions are part of what the differential tests. It runs one
    // configuration per allocator (the first register limit), since the
    // point is the cache key, not the allocator.
    if (Opts.WithCache)
      DiffCache = std::make_unique<cache::CompileCache>();
    CacheRegs = Opts.RegLimits.empty() ? 0 : Opts.RegLimits.front();
  }

  FuzzReport run() {
    unsigned Threads = resolveThreadCount(Opts.Threads, Opts.Count);
    parallelFor(2 * Opts.Count, Threads, [&](unsigned Item) {
      try {
        if (Item % 2)
          runCacheStep(Item / 2);
        else
          runGrid(Item / 2);
      } catch (...) {
        stop(); // release any cache step waiting for this one
        throw;
      }
    });
    return std::move(Report);
  }

private:
  /// What one program contributes to the report, until it is committed.
  struct ProgramResults {
    std::string Text;
    /// Oracle verdicts in grid order: limit, allocator, cleanup setting.
    std::vector<OracleResult> Grid;
    /// Cache-differential detail per allocator (empty = pass).
    std::vector<std::string> CacheDiff;
    unsigned ItemsLeft = 2;
  };

  const FuzzOptions &Opts;
  std::ostream *Progress;
  std::vector<bool> Cleanups{false};
  std::vector<AllocatorKind> Allocators;
  std::unique_ptr<cache::CompileCache> DiffCache;
  unsigned CacheRegs = 0;

  std::mutex Mu; // guards everything below, and the report stream
  std::condition_variable CacheTurn;
  std::map<unsigned, ProgramResults> InFlight; // programs not yet committed
  unsigned NextCacheStep = 0;
  unsigned NextCommit = 0;
  std::atomic<bool> Stopped{false};
  FuzzReport Report;

  uint64_t seed(unsigned I) const { return Opts.SeedStart + I; }

  void runGrid(unsigned I) {
    if (Stopped)
      return;
    std::string Text = generateProgram(seed(I), Opts.Program);
    std::vector<OracleResult> Grid;
    for (unsigned Regs : Opts.RegLimits) {
      // Parse, lowering, DCE and the reference run depend only on the text
      // and the limit, so every backend and cleanup setting shares them.
      PreparedProgram Prepared = prepareOracle(Text, Regs);
      for (AllocatorKind K : Allocators)
        for (OracleResult &O : runOracleCleanups(Prepared, K, Cleanups))
          Grid.push_back(std::move(O));
    }
    itemDone(I, [&](ProgramResults &R) {
      R.Text = std::move(Text);
      R.Grid = std::move(Grid);
    });
  }

  void runCacheStep(unsigned I) {
    std::vector<std::string> CacheDiff;
    if (DiffCache) {
      std::unique_lock<std::mutex> Lock(Mu);
      CacheTurn.wait(Lock, [&] { return NextCacheStep == I || Stopped; });
      Lock.unlock();
      if (!Stopped) {
        std::string Text = generateProgram(seed(I), Opts.Program);
        for (AllocatorKind K : Allocators)
          CacheDiff.push_back(
              runCacheDifferential(Text, K, CacheRegs, *DiffCache));
      }
    }
    itemDone(I, [&](ProgramResults &R) {
      R.CacheDiff = std::move(CacheDiff);
      NextCacheStep = I + 1;
    });
  }

  void stop() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stopped = true;
    }
    CacheTurn.notify_all();
  }

  /// One of program \p I's items is done: \p Store files its results, and
  /// every program now complete and next in order is committed. After the
  /// cut-off nothing is kept.
  template <typename StoreFn> void itemDone(unsigned I, StoreFn Store) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Stopped)
        return;
      ProgramResults &Done = InFlight[I];
      Store(Done);
      --Done.ItemsLeft;
      while (!Stopped) {
        auto Next = InFlight.find(NextCommit);
        if (Next == InFlight.end() || Next->second.ItemsLeft)
          break;
        Stopped = !commit(NextCommit++, Next->second);
        InFlight.erase(Next);
      }
    }
    CacheTurn.notify_all();
  }

  /// Add program \p I's runs and findings to the report, in the order the
  /// sequential loop found them. False once MaxFindings is reached.
  bool commit(unsigned I, const ProgramResults &R) {
    ++Report.Programs;
    size_t Point = 0;
    for (unsigned Regs : Opts.RegLimits)
      for (AllocatorKind K : Allocators)
        for (bool Cleanup : Cleanups) {
          ++Report.Runs;
          const OracleResult &O = R.Grid[Point++];
          if (O.fail() && !addOracleFinding(I, Regs, K, Cleanup, O, R.Text))
            return false;
        }
    if (DiffCache) {
      for (size_t J = 0; J < Allocators.size(); ++J) {
        ++Report.Runs;
        if (!R.CacheDiff[J].empty() &&
            !addCacheFinding(I, Allocators[J], R.CacheDiff[J], R.Text))
          return false;
      }
    }
    if (Progress && (I + 1) % 25 == 0)
      *Progress << "fuzz: " << (I + 1) << "/" << Opts.Count << " programs, "
                << Report.Runs << " runs, " << Report.Findings.size()
                << " findings\n";
    return true;
  }

  bool addOracleFinding(unsigned I, unsigned Regs, AllocatorKind K,
                        bool Cleanup, const OracleResult &O,
                        const std::string &Text) {
    uint64_t Seed = seed(I);
    FuzzFinding F;
    F.Seed = Seed;
    F.Regs = Regs;
    F.K = K;
    F.SpillCleanup = Cleanup;
    F.Kind = O.Kind;
    F.Detail = O.Detail;
    F.Program = Text;
    F.Reduced = Text;
    if (Progress)
      *Progress << "fuzz: FINDING seed=" << Seed << " allocator="
                << allocatorName(K) << " regs=" << Regs
                << (Cleanup ? " cleanup" : "") << " " << O.Kind << ": "
                << O.Detail << "\n";
    if (Opts.Reduce) {
      ReduceResult RR = reduceProgram(Text, K, Regs, Cleanup);
      F.Reduced = RR.Text;
      if (Progress)
        *Progress << "fuzz: reduced seed=" << Seed << " from "
                  << RR.OriginalInstrs << " to " << RR.FinalInstrs
                  << " instructions\n";
    }
    if (!Opts.CorpusDir.empty()) {
      std::string Name = Opts.CorpusDir + "/seed" + std::to_string(Seed) +
                         "_" + allocatorName(K) + "_r" + std::to_string(Regs) +
                         (Cleanup ? "_cleanup" : "") + ".ir";
      std::ofstream Out(Name);
      if (Out) {
        // Replayable header: corpus_test re-runs the oracle with the exact
        // configuration that failed.
        Out << "; oracle: allocator=" << allocatorName(K) << " regs=" << Regs
            << " cleanup=" << (Cleanup ? 1 : 0) << " seed=" << Seed
            << " kind=" << O.Kind << "\n";
        Out << F.Reduced;
        F.CorpusFile = Name;
      }
    }
    Report.Findings.push_back(std::move(F));
    return Report.Findings.size() < Opts.MaxFindings;
  }

  bool addCacheFinding(unsigned I, AllocatorKind K, const std::string &Detail,
                       const std::string &Text) {
    FuzzFinding F;
    F.Seed = seed(I);
    F.Regs = CacheRegs;
    F.K = K;
    F.Kind = "cache-differential";
    F.Detail = Detail;
    F.Program = Text;
    F.Reduced = Text;
    if (Progress)
      *Progress << "fuzz: FINDING seed=" << F.Seed << " allocator="
                << allocatorName(K) << " regs=" << CacheRegs
                << " cache-differential: " << Detail << "\n";
    Report.Findings.push_back(std::move(F));
    return Report.Findings.size() < Opts.MaxFindings;
  }
};

} // namespace

FuzzReport lsra::check::runDifferentialFuzz(const FuzzOptions &Opts,
                                            std::ostream *Progress) {
  return FuzzRun(Opts, Progress).run();
}
