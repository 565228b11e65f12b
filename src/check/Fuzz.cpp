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
#include "target/LowerCalls.h"
#include "vm/VM.h"

#include <fstream>
#include <ostream>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

namespace {

TargetDesc targetFor(unsigned RegLimit) {
  TargetDesc TD = TargetDesc::alphaLike();
  return RegLimit ? TD.withRegLimit(RegLimit, RegLimit) : TD;
}

/// The VM budget of both oracle runs.
VM::Options refOptions() {
  VM::Options O;
  O.MaxInstrs = 50'000'000;
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
  TargetDesc TD = targetFor(RegLimit);
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

  P.TD = targetFor(RegLimit);
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

OracleResult lsra::check::runOracle(const PreparedProgram &P, AllocatorKind K,
                                    bool SpillCleanup) {
  if (!P.M)
    return P.Malformed;
  const TargetDesc &TD = P.TD;
  std::unique_ptr<Module> AM = cloneModule(*P.M);
  AllocOptions AO;
  AO.SpillCleanup = SpillCleanup;
  allocateModule(*AM, TD, K, AO);

  std::string Diag = checkAllocated(*AM);
  if (!Diag.empty())
    return fail("structural", Diag);

  VerifyAllocResult VR = verifyAllocation(*P.M, *AM, TD);
  if (!VR.ok())
    return fail("verifier", VR.str());

  VM::Options GotOpts = refOptions();
  GotOpts.PoisonCallerSaved = true;
  GotOpts.CheckCalleeSaved = true;
  RunResult Got = VM(*AM, TD, GotOpts).run();
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

OracleResult lsra::check::runOracle(const std::string &IRText, AllocatorKind K,
                                    unsigned RegLimit, bool SpillCleanup) {
  return runOracle(prepareOracle(IRText, RegLimit), K, SpillCleanup);
}

FuzzReport lsra::check::runDifferentialFuzz(const FuzzOptions &Opts,
                                            std::ostream *Progress) {
  FuzzReport Report;
  std::vector<bool> Cleanups{false};
  if (Opts.WithSpillCleanup)
    Cleanups.push_back(true);
  std::vector<AllocatorKind> Allocators = Opts.Allocators;
  if (Allocators.empty())
    Allocators = AllocatorRegistry::global().kinds();

  // One cache for the whole run, so cross-program (and cross-allocator)
  // collisions are part of what the differential tests.
  std::unique_ptr<cache::CompileCache> DiffCache;
  if (Opts.WithCache)
    DiffCache = std::make_unique<cache::CompileCache>();

  for (unsigned I = 0; I < Opts.Count; ++I) {
    uint64_t Seed = Opts.SeedStart + I;
    std::unique_ptr<Module> M = buildRandomProgram(Seed, Opts.Program);
    std::ostringstream OS;
    printModule(OS, *M);
    std::string Text = OS.str();
    ++Report.Programs;

    for (unsigned Regs : Opts.RegLimits) {
      // Parse, lowering, DCE and the reference run depend only on the text
      // and the limit, so every backend and cleanup setting shares them.
      PreparedProgram Prepared = prepareOracle(Text, Regs);
      for (AllocatorKind K : Allocators) {
        for (bool Cleanup : Cleanups) {
          ++Report.Runs;
          OracleResult O = runOracle(Prepared, K, Cleanup);
          if (!O.fail())
            continue;

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
                               "_" + allocatorName(K) + "_r" +
                               std::to_string(Regs) +
                               (Cleanup ? "_cleanup" : "") + ".ir";
            std::ofstream Out(Name);
            if (Out) {
              // Replayable header: corpus_test re-runs the oracle with the
              // exact configuration that failed.
              Out << "; oracle: allocator=" << allocatorName(K)
                  << " regs=" << Regs << " cleanup=" << (Cleanup ? 1 : 0)
                  << " seed=" << Seed << " kind=" << O.Kind << "\n";
              Out << F.Reduced;
              F.CorpusFile = Name;
            }
          }
          Report.Findings.push_back(std::move(F));
          if (Report.Findings.size() >= Opts.MaxFindings)
            return Report;
        }
      }
    }
    // Cache-differential pass: one configuration per allocator (the first
    // register limit), since the point is the cache key, not the allocator.
    if (DiffCache) {
      unsigned Regs = Opts.RegLimits.empty() ? 0 : Opts.RegLimits.front();
      for (AllocatorKind K : Allocators) {
        ++Report.Runs;
        std::string Detail = runCacheDifferential(Text, K, Regs, *DiffCache);
        if (Detail.empty())
          continue;
        FuzzFinding F;
        F.Seed = Seed;
        F.Regs = Regs;
        F.K = K;
        F.Kind = "cache-differential";
        F.Detail = Detail;
        F.Program = Text;
        F.Reduced = Text;
        if (Progress)
          *Progress << "fuzz: FINDING seed=" << Seed << " allocator="
                    << allocatorName(K) << " regs=" << Regs
                    << " cache-differential: " << Detail << "\n";
        Report.Findings.push_back(std::move(F));
        if (Report.Findings.size() >= Opts.MaxFindings)
          return Report;
      }
    }

    if (Progress && (I + 1) % 25 == 0)
      *Progress << "fuzz: " << (I + 1) << "/" << Opts.Count << " programs, "
                << Report.Runs << " runs, " << Report.Findings.size()
                << " findings\n";
  }
  return Report;
}
