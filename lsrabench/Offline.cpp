//===- lsrabench/Offline.cpp - corpus-cold, code-cold, fuzz-grid ----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three offline workloads. The untraced phase drives the system only
/// through compileTextModule (corpus-cold, code-cold) and
/// check::runDifferentialFuzz (fuzz-grid). The traced phase re-composes
/// the same operations from the public calls those entry points make and
/// times each call as one layer span; its allocated text must be
/// byte-identical to the untraced result. Every distinct (program,
/// allocator) output is then executed on the VM with caller-saved
/// registers poisoned and compared against the unallocated reference run.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/AnalysisCache.h"
#include "cache/CompileCache.h"
#include "check/Clone.h"
#include "check/Fuzz.h"
#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "regalloc/Registry.h"
#include "target/LowerCalls.h"
#include "vm/VM.h"
#include "workloads/RandomProgram.h"
#include "workloads/SyntheticModule.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sched.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace lsra;

namespace lsrabench {
namespace {

// The program sets are fixed: random programs use generator seeds 1..N
// (fuzz-grid's are the first programs of `lsra fuzz --seed=1`). --seed
// orders the ops of each round. A seed that picked the programs would move
// cycles by 20-70% between seeds, which no regression bound can absorb.

/// code-cold: random programs, next to the four Table 3 modules.
constexpr unsigned CodeRandomPrograms = 8;
/// fuzz-grid: programs the run cycles through, so that each one repeats.
constexpr unsigned FuzzPrograms = 2;
/// Share of --seconds a trace run spends untraced (for obs.trace_overhead).
constexpr double UntracedShareInTraceRun = 0.4;
/// Input set-ups per run, spread over the untraced phase; setup_s is their
/// median, each taken at the host's fastest speed like the op times.
constexpr unsigned SetupReps = 8;

enum Layer : unsigned {
  LGen,      // workloads: random program generation (fuzz-grid op)
  LParse,    // ir
  LIrVerify, // ir
  LLower,    // target
  LDce,      // passes
  LAlloc,    // regalloc
  LCheck,    // driver: checkAllocated
  LClone,    // driver: cloneModule
  LVerify,   // check: verifyAllocation
  LVmRef,    // vm
  LVmAlloc,  // vm
  LOther,    // check: cache differential and comparisons
  LPrint,    // ir
  NumLayers
};

struct Input {
  std::string Name;
  std::string Text;
  uint64_t FuzzSeed = 0; ///< fuzz-grid: the program's generator seed
};

struct Workload {
  bool Fuzz = false;
  TargetDesc TD = TargetDesc::alphaLike();
  std::vector<Input> Inputs;
};

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

/// One oracle slice of the `lsra fuzz` default grid for one program: one
/// backend at one register limit, cleanup off and on. Slicing the grid
/// lets the speed probes run every few tens of milliseconds.
check::FuzzOptions fuzzOptionsFor(uint64_t ProgramSeed, AllocatorKind K,
                                  unsigned Regs) {
  check::FuzzOptions FO;
  FO.WithCache = false;
  FO.SeedStart = ProgramSeed;
  FO.Count = 1;
  FO.Allocators = {K};
  FO.RegLimits = {Regs};
  FO.Reduce = false;
  return FO;
}

/// The grid's cache differential over every fuzz-grid program and backend
/// through one shared cache, as `lsra fuzz` runs it, so collisions between
/// programs and between backends are part of the check. With no register
/// limits the oracle runs are skipped and the pass uses the full machine.
check::FuzzOptions cacheDiffOptions() {
  check::FuzzOptions FO;
  FO.SeedStart = 1;
  FO.Count = FuzzPrograms;
  FO.RegLimits = {};
  FO.Reduce = false;
  return FO;
}

bool setUpWorkload(const std::string &Name, Workload &W) {
  W = Workload();
  if (Name == "corpus-cold") {
    for (const WorkloadSpec &S : allWorkloads())
      W.Inputs.push_back({S.Name, printed(*S.Build())});
    return true;
  }
  if (Name == "code-cold") {
    W.TD = TargetDesc::alphaLike().withRegLimit(8, 8);
    // The bench-compile-time (Table 3) modules, fixed across seeds.
    struct Scaled {
      const char *Name;
      ScaledModuleOptions Opts;
    } Scaleds[] = {
        {"cvrin-like", {4, 245, 8, 6, 11}},
        {"twldrv-like", {1, 6218, 48, 10, 22}},
        {"fpppp-like", {2, 3348, 56, 8, 33}},
        {"many-proc", {16, 500, 24, 6, 44}},
    };
    for (const Scaled &S : Scaleds)
      W.Inputs.push_back({S.Name, printed(*buildScaledModule(S.Opts))});
    RandomProgramOptions RO;
    RO.Statements = 300;
    RO.HelperFuncs = 4;
    for (uint64_t S = 1; S <= CodeRandomPrograms; ++S)
      W.Inputs.push_back(
          {"random-" + std::to_string(S), printed(*buildRandomProgram(S, RO))});
    return true;
  }
  if (Name == "fuzz-grid") {
    W.Fuzz = true;
    check::FuzzOptions FO;
    for (uint64_t S = 1; S <= FuzzPrograms; ++S)
      W.Inputs.push_back({"fuzz-" + std::to_string(S),
                          printed(*buildRandomProgram(S, FO.Program)), S});
    return true;
  }
  return false;
}

/// One timed unit: a compile (program, backend), or on fuzz-grid the
/// (program, backend, register limit) oracle slice of the grid or the
/// cache differential over all programs.
struct Job {
  unsigned In;
  AllocatorKind K;
  unsigned Regs = 0;
  bool CacheDiff = false;
};

/// Host speed reference. This host's speed drifts by up to 1.8x over
/// seconds, separately on each CPU (its hardware threads are shared with
/// other machines), and a plain arithmetic loop does not see the drift,
/// so the reference is compile work itself: the best of three binpack
/// compiles of a small fixed program. It runs in a helper process forked
/// before the workload is set up, on the benchmark's CPU, so it sees that
/// CPU's drift but none of the benchmark process's state (heap, caches,
/// registries); the benchmark waits while it probes. Only ratios of probe
/// times are used, so a change that makes compiling faster does not move
/// the correction.
class SpeedProbe {
public:
  SpeedProbe() {
    int Req[2], Rep[2];
    if (::pipe(Req) != 0)
      return;
    if (::pipe(Rep) != 0) {
      ::close(Req[0]);
      ::close(Req[1]);
      return;
    }
    Pid = ::fork();
    if (Pid == 0) {
      ::close(Req[1]);
      ::close(Rep[0]);
      serve(Req[0], Rep[1]);
      ::_exit(0);
    }
    ::close(Req[0]);
    ::close(Rep[1]);
    ToHelper = Req[1];
    FromHelper = Rep[0];
    if (Pid < 0)
      stop();
  }
  ~SpeedProbe() { stop(); }
  SpeedProbe(const SpeedProbe &) = delete;
  SpeedProbe &operator=(const SpeedProbe &) = delete;

  /// Seconds of one probe. Ends the benchmark if the helper is gone.
  double sample() {
    char Go = 1;
    double Sec = 0;
    if (Pid <= 0 || ::write(ToHelper, &Go, 1) != 1 ||
        ::read(FromHelper, &Sec, sizeof(Sec)) !=
            static_cast<ssize_t>(sizeof(Sec)) ||
        !(Sec > 0)) {
      std::fprintf(stderr, "lsrabench: the speed probe helper failed\n");
      stop();
      std::exit(1);
    }
    return Sec;
  }

private:
  static void serve(int In, int Out) {
    std::string Text = printed(*lsra::buildWorkload("doduc"));
    TargetDesc TD = TargetDesc::alphaLike();
    char Go;
    while (::read(In, &Go, 1) == 1) {
      double Best = 1e9;
      for (int I = 0; I < 3; ++I) {
        double T0 = nowSec();
        compileTextModule(Text, TD, AllocatorKind::SecondChanceBinpack);
        Best = std::min(Best, nowSec() - T0);
      }
      if (::write(Out, &Best, sizeof(Best)) !=
          static_cast<ssize_t>(sizeof(Best)))
        return;
    }
  }

  /// Closes the pipes (the helper reads end of file and exits) and reaps it.
  void stop() {
    if (ToHelper >= 0)
      ::close(ToHelper);
    if (FromHelper >= 0)
      ::close(FromHelper);
    ToHelper = FromHelper = -1;
    if (Pid > 0) {
      int St;
      while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR)
        ;
    }
    Pid = -1;
  }

  int Pid = -1;
  int ToHelper = -1, FromHelper = -1;
};

/// Probe at most this often; ops in between share the surrounding probes.
constexpr double ProbeEverySec = 0.02;

struct PhaseTimes {
  std::vector<double> OpMs;    ///< every op, in order, as measured
  std::vector<unsigned> OpJob; ///< job index of each op
  /// Host slowdown (>= 1) while each op ran: the mean of the probes on
  /// either side of it over the fastest probe of the phase.
  std::vector<double> Slow;
  double FastestProbe = 0;
  uint64_t Ops = 0;
  size_t Rounds = 0; ///< complete passes over the jobs
};

/// Op times (ms) at the host's fastest speed (time / slowdown): each job's
/// median over the phase, or on fuzz-grid each program's sum over its
/// oracle slices plus an equal share of the cache differential. The job
/// mix is fixed, so the distribution does not depend on how many rounds
/// fit in the time budget.
std::vector<double> opTimesMs(const PhaseTimes &P, const std::vector<Job> &Jobs,
                              bool Fuzz, size_t NumInputs) {
  std::vector<std::vector<double>> ByJob(Jobs.size());
  for (size_t I = 0; I < P.OpMs.size(); ++I)
    ByJob[P.OpJob[I]].push_back(P.OpMs[I] / P.Slow[I]);
  std::vector<double> Out;
  if (!Fuzz) {
    for (const auto &V : ByJob)
      if (!V.empty())
        Out.push_back(median(V));
    return Out;
  }
  std::vector<double> Sum(NumInputs, 0);
  std::vector<bool> Whole(NumInputs, true);
  for (size_t J = 0; J < Jobs.size(); ++J)
    for (size_t I = 0; I < NumInputs; ++I) {
      if (!Jobs[J].CacheDiff && Jobs[J].In != I)
        continue;
      Whole[I] = Whole[I] && !ByJob[J].empty();
      if (!ByJob[J].empty())
        Sum[I] += median(ByJob[J]) /
                  (Jobs[J].CacheDiff ? static_cast<double>(NumInputs) : 1.0);
    }
  for (size_t I = 0; I < NumInputs; ++I)
    if (Whole[I])
      Out.push_back(Sum[I]);
  return Out;
}

/// Runs \p Op over the jobs in seeded rounds until \p Seconds elapse, but
/// always at least \p MinOps ops, probing the host's speed between ops.
/// \p Between(elapsed seconds) runs after each op, outside its timing.
template <typename OpFn, typename BetweenFn>
PhaseTimes runRounds(SpeedProbe &Probe, size_t NumJobs, uint64_t Seed,
                     double Seconds, size_t MinOps, BetweenFn Between,
                     OpFn Op) {
  PhaseTimes P;
  Rng G(Seed ^ 0x5bd1e995u);
  std::vector<unsigned> Order(NumJobs);
  // (ops completed before the probe, probe seconds)
  std::vector<std::pair<uint64_t, double>> Probes{{0, Probe.sample()}};
  double Start = nowSec();
  double LastProbe = Start;
  double Deadline = Start + Seconds;
  bool Stop = false;
  while (!Stop) {
    for (unsigned I = 0; I < NumJobs; ++I)
      Order[I] = I;
    shuffle(Order, G);
    size_t Done = 0;
    for (unsigned J : Order) {
      double T0 = nowSec();
      Op(J, P.Ops);
      double T1 = nowSec();
      P.OpMs.push_back((T1 - T0) * 1e3);
      P.OpJob.push_back(J);
      ++P.Ops;
      ++Done;
      if (T1 >= Deadline && P.Ops >= MinOps) {
        Stop = true;
        break;
      }
      if (T1 - LastProbe >= ProbeEverySec) {
        Probes.push_back({P.Ops, Probe.sample()});
        LastProbe = nowSec();
      }
      Between(T1 - Start);
    }
    P.Rounds += Done == NumJobs;
  }
  Probes.push_back({P.Ops, Probe.sample()});
  P.FastestProbe = Probes[0].second;
  for (const auto &Pr : Probes)
    P.FastestProbe = std::min(P.FastestProbe, Pr.second);
  size_t After = 1;
  for (uint64_t I = 0; I < P.Ops; ++I) {
    while (Probes[After].first < I + 1)
      ++After;
    P.Slow.push_back((Probes[After - 1].second + Probes[After].second) /
                     (2 * P.FastestProbe));
  }
  return P;
}

/// The layer costs and counts of the traced phase.
struct Trace {
  LayerCost L[NumLayers];
  uint64_t Ops = 0; ///< ops started so far
  uint64_t BytesParsed = 0;
  uint64_t VmInstrs = 0;
  std::map<AllocatorKind, LayerCost> AllocBy; ///< regalloc per backend
  std::map<AllocatorKind, uint64_t> OpsBy;
  // Deterministic counts, summed over the counted prefix of ops only.
  bool Counting = true;
  uint64_t CountOps = 0, DceRemoved = 0, Spilled = 0, Splits = 0,
           StaticSpills = 0, DataflowIters = 0, BytesIn = 0, BytesOut = 0;
  uint64_t FrozenAllocs[NumLayers] = {};

  /// Ends the counted prefix: later ops only add time.
  void freezeCounts() {
    if (!Counting)
      return;
    Counting = false;
    CountOps = Ops;
    for (unsigned I = 0; I < NumLayers; ++I)
      FrozenAllocs[I] = L[I].Allocs;
  }

  void count(const AllocStats &S) {
    if (!Counting)
      return;
    Spilled += S.SpilledTemps;
    Splits += S.LifetimeSplits;
    StaticSpills += S.staticSpillInstrs();
    DataflowIters += S.DataflowIterations;
  }
};

/// compileTextModule (cache off, verify off, one thread) re-composed from
/// the calls it makes, one span per call.
std::string tracedCompile(const std::string &Text, const TargetDesc &TD,
                          AllocatorKind K, Trace &T, std::string &Err) {
  ParseResult P;
  {
    Span S(T.L[LParse]);
    P = parseModule(Text);
  }
  T.BytesParsed += Text.size();
  if (!P.ok()) {
    Err = "parse: " + P.Error;
    return "";
  }
  std::string Diag;
  {
    Span S(T.L[LIrVerify]);
    Diag = verifyModule(*P.M);
  }
  if (!Diag.empty()) {
    Err = "verify: " + Diag;
    return "";
  }
  {
    Span S(T.L[LLower]);
    lowerCalls(*P.M);
  }
  unsigned Removed;
  {
    Span S(T.L[LDce]);
    Removed = eliminateDeadCode(*P.M, TD);
  }
  AllocStats St;
  {
    Span S(T.L[LAlloc]);
    Span SK(T.AllocBy[K]);
    St = allocateModule(*P.M, TD, K);
  }
  {
    Span S(T.L[LCheck]);
    Diag = checkAllocated(*P.M);
  }
  if (!Diag.empty()) {
    Err = "post-allocation verify: " + Diag;
    return "";
  }
  std::string Out;
  {
    Span S(T.L[LPrint]);
    Out = printed(*P.M);
  }
  if (T.Counting) {
    T.DceRemoved += Removed;
    T.BytesIn += Text.size();
    T.BytesOut += Out.size();
  }
  T.count(St);
  return Out;
}

TargetDesc fuzzTarget(unsigned RegLimit) {
  TargetDesc TD = TargetDesc::alphaLike();
  return RegLimit ? TD.withRegLimit(RegLimit, RegLimit) : TD;
}

bool sameRun(const RunResult &A, const RunResult &B) {
  return A.Ok == B.Ok &&
         (!A.Ok || (A.ReturnValue == B.ReturnValue && A.Output == B.Output));
}

/// Program generation and printing, as runDifferentialFuzz does them.
std::string tracedGenerate(uint64_t ProgramSeed, Trace &T) {
  std::unique_ptr<Module> M;
  {
    Span S(T.L[LGen]);
    M = buildRandomProgram(ProgramSeed, check::FuzzOptions().Program);
  }
  Span S(T.L[LPrint]);
  return printed(*M);
}

/// One oracle slice (reduction off) re-composed from the calls
/// runDifferentialFuzz and runOracle make. Empty = clean.
std::string tracedFuzz(uint64_t ProgramSeed, AllocatorKind K, unsigned Regs,
                       Trace &T) {
  std::string Text = tracedGenerate(ProgramSeed, T);
  TargetDesc TD = fuzzTarget(Regs);
  for (bool Cleanup : {false, true}) {
    ParseResult P;
    {
      Span S(T.L[LParse]);
      P = parseModule(Text);
    }
    T.BytesParsed += Text.size();
    std::string Diag;
    {
      Span S(T.L[LIrVerify]);
      Diag = P.ok() ? verifyModule(*P.M) : P.Error;
    }
    if (!Diag.empty())
      return "malformed program: " + Diag;
    {
      Span S(T.L[LLower]);
      lowerCalls(*P.M);
    }
    unsigned Removed;
    {
      Span S(T.L[LDce]);
      Removed = eliminateDeadCode(*P.M, TD);
    }
    VM::Options RefOpts;
    RefOpts.MaxInstrs = 50'000'000;
    RunResult Ref;
    {
      Span S(T.L[LVmRef]);
      Ref = VM(*P.M, TD, RefOpts).run();
    }
    std::unique_ptr<Module> AM;
    {
      Span S(T.L[LClone]);
      AM = cloneModule(*P.M);
    }
    AllocOptions AO;
    AO.SpillCleanup = Cleanup;
    AllocStats St;
    {
      Span S(T.L[LAlloc]);
      Span SK(T.AllocBy[K]);
      St = allocateModule(*AM, TD, K, AO);
    }
    {
      Span S(T.L[LCheck]);
      Diag = checkAllocated(*AM);
    }
    if (!Diag.empty())
      return "structural: " + Diag;
    check::VerifyAllocResult VR;
    {
      Span S(T.L[LVerify]);
      VR = check::verifyAllocation(*P.M, *AM, TD);
    }
    if (!VR.ok())
      return "verifier: " + VR.str();
    VM::Options GotOpts = RefOpts;
    GotOpts.PoisonCallerSaved = true;
    GotOpts.CheckCalleeSaved = true;
    RunResult Got;
    {
      Span S(T.L[LVmAlloc]);
      Got = VM(*AM, TD, GotOpts).run();
    }
    T.VmInstrs += Ref.Stats.Total + Got.Stats.Total;
    bool Same;
    {
      Span S(T.L[LOther]);
      Same = sameRun(Ref, Got);
    }
    if (!Same)
      return std::string("allocated run differs from the reference (") +
             allocatorName(K) + ", regs=" + std::to_string(Regs) + ")";
    if (T.Counting) {
      T.DceRemoved += Removed;
      T.BytesIn += Text.size();
    }
    T.count(St);
  }
  return "";
}

/// The cache differential over every program and backend through one
/// cache, cold then warm, on the full machine (cacheDiffOptions).
std::string tracedCacheDiff(const Workload &W, Trace &T) {
  cache::CompileCache Cache;
  TargetDesc TD = TargetDesc::alphaLike();
  ExecOptions EO;
  EO.VerifyAlloc = true;
  EO.Cache = &Cache;
  for (const Input &In : W.Inputs) {
    std::string Text = tracedGenerate(In.FuzzSeed, T);
    Span S(T.L[LOther]);
    for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
      TextCompileResult Cold = compileTextModule(Text, TD, K, {}, EO);
      TextCompileResult Warm = compileTextModule(Text, TD, K, {}, EO);
      if (!Cold.Ok || !Warm.Ok || !Warm.CacheHit ||
          Warm.AllocatedText != Cold.AllocatedText)
        return std::string("cache differential failed for ") +
               allocatorName(K);
      if (T.Counting)
        T.BytesOut += Cold.AllocatedText.size();
    }
  }
  return "";
}

/// Analysis costs of one input, timed through FunctionAnalyses on a clone
/// of the lowered, dead-code-eliminated module (the allocator's input).
void timeAnalyses(const Input &In, const TargetDesc &TD, double &Live,
                  double &Loops, double &Lifetimes) {
  ParseResult P = parseModule(In.Text);
  if (!P.ok())
    return;
  lowerCalls(*P.M);
  eliminateDeadCode(*P.M, TD);
  std::vector<double> LV, LO, LT;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::unique_ptr<Module> C = cloneModule(*P.M);
    double A = 0, B = 0, D = 0;
    for (const auto &F : C->functions()) {
      FunctionAnalyses FA(*F, TD);
      double T0 = nowSec();
      FA.liveness();
      double T1 = nowSec();
      FA.loops();
      double T2 = nowSec();
      FA.lifetimes();
      double T3 = nowSec();
      A += T1 - T0;
      B += T2 - T1;
      D += T3 - T2;
    }
    LV.push_back(A);
    LO.push_back(B);
    LT.push_back(D);
  }
  Live = median(LV);
  Loops = median(LO);
  Lifetimes = median(LT);
}

/// Which analyses a compile by backend \p K computes: {liveness, loops,
/// lifetimes}, from its registry capabilities. Lifetimes are built from
/// liveness and loops, so a backend that needs lifetimes computes all three.
std::array<bool, 3> analysesOf(AllocatorKind K) {
  const AllocatorInfo &I = AllocatorRegistry::global().info(K);
  bool Lifetimes = I.needs(CapNeedsLifetimes);
  return {Lifetimes || I.needs(CapNeedsLiveness),
          Lifetimes || I.needs(CapNeedsLoops), Lifetimes};
}

struct Quality {
  uint64_t Cycles = 0, SpillDyn = 0, CodeInstrs = 0;
  std::map<AllocatorKind, uint64_t> CyclesBy;
};

/// Executes every distinct (input, allocator) output once with caller-saved
/// registers poisoned and compares it against the unallocated reference.
void checkOutputs(const Workload &W, const std::vector<Job> &Jobs,
                  std::vector<std::string> &Outputs, Quality &Q, Result &R) {
  std::vector<RunResult> Refs(W.Inputs.size());
  std::vector<bool> HaveRef(W.Inputs.size(), false);
  for (size_t J = 0; J < Jobs.size(); ++J) {
    const Job &Jb = Jobs[J];
    const Input &In = W.Inputs[Jb.In];
    if (!HaveRef[Jb.In]) {
      ParseResult P = parseModule(In.Text);
      if (!P.ok()) {
        R.fail(In.Name + ": input does not parse: " + P.Error);
        continue;
      }
      Refs[Jb.In] = runReference(*P.M, W.TD);
      HaveRef[Jb.In] = true;
    }
    if (Outputs[J].empty()) {
      TextCompileResult C = compileTextModule(In.Text, W.TD, Jb.K);
      if (!C.Ok) {
        R.fail(In.Name + "/" + allocatorName(Jb.K) + ": " + C.Error);
        continue;
      }
      Outputs[J] = std::move(C.AllocatedText);
    }
    ParseResult A = parseModule(Outputs[J]);
    if (!A.ok()) {
      R.fail(In.Name + "/" + allocatorName(Jb.K) +
             ": allocated text does not parse: " + A.Error);
      continue;
    }
    RunResult Got = runAllocated(*A.M, W.TD);
    if (!Refs[Jb.In].Ok || !sameRun(Refs[Jb.In], Got)) {
      R.fail(In.Name + "/" + allocatorName(Jb.K) +
             ": allocated run differs from the reference run" +
             (Got.Ok ? "" : " (" + Got.Error + ")"));
      continue;
    }
    Q.Cycles += Got.Stats.Cycles;
    Q.SpillDyn += Got.Stats.spillInstrs();
    Q.CyclesBy[Jb.K] += Got.Stats.Cycles;
    for (const auto &F : A.M->functions())
      Q.CodeInstrs += F->numInstrs();
  }
}

} // namespace

int runOffline(const Options &O, Result &R) {
  // One thread on one CPU, so the speed probes see the CPU the ops ran on.
  // The probe helper is forked after pinning and inherits the CPU.
  cpu_set_t Cpu;
  CPU_ZERO(&Cpu);
  CPU_SET(sched_getcpu(), &Cpu);
  sched_setaffinity(0, sizeof(Cpu), &Cpu);
  SpeedProbe Probe;

  // Set-up: once before the ops, then between ops, spread over the
  // untraced phase. Each is bracketed by speed probes.
  Workload W;
  std::vector<std::pair<double, double>> Setups; // (seconds, probe seconds)
  auto SetUp = [&](Workload &Into) {
    double P0 = Probe.sample();
    double S0 = nowSec();
    bool Known = setUpWorkload(O.Workload, Into);
    Setups.push_back({nowSec() - S0, (P0 + Probe.sample()) / 2});
    return Known;
  };
  if (!SetUp(W)) {
    std::fprintf(stderr, "lsrabench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  double UntracedSec =
      O.Trace ? O.Seconds * UntracedShareInTraceRun : O.Seconds;
  double NextSetupAt = 0;
  auto SetupBetweenOps = [&](double Elapsed) {
    if (Setups.size() >= SetupReps || Elapsed < NextSetupAt)
      return;
    NextSetupAt += UntracedSec / SetupReps;
    Workload Scratch;
    SetUp(Scratch);
  };
  std::vector<AllocatorKind> Kinds = AllocatorRegistry::global().kinds();
  // Quality is measured over every (input, backend) pair. Off the fuzz
  // grid each pair is also a job; on it, each pair has one job per limit,
  // and one more job runs the cache differential over all programs.
  std::vector<Job> Pairs, Jobs;
  std::vector<unsigned> Limits =
      W.Fuzz ? check::FuzzOptions().RegLimits : std::vector<unsigned>{0};
  for (unsigned I = 0; I < W.Inputs.size(); ++I)
    for (AllocatorKind K : Kinds) {
      Pairs.push_back({I, K});
      for (unsigned Regs : Limits)
        Jobs.push_back({I, K, Regs});
    }
  if (W.Fuzz)
    Jobs.push_back({0, Kinds.front(), 0, true});
  std::vector<std::string> Outputs(Pairs.size()); // allocated text per pair
  // fuzz-grid ops are programs, which share the jobs of a round.
  double JobsPerOp = W.Fuzz ? static_cast<double>(Jobs.size()) /
                                  static_cast<double>(W.Inputs.size())
                            : 1.0;

  // Regime label: how much of the input is the memory image.
  uint64_t Lines = 0, MemLines = 0, TextBytes = 0;
  for (const Input &In : W.Inputs) {
    countLines(In.Text, Lines, MemLines);
    TextBytes += In.Text.size();
  }
  double MemShare =
      Lines ? static_cast<double>(MemLines) / static_cast<double>(Lines) : 0;

  // --- untraced phase ------------------------------------------------------
  uint64_t BytesMoved = 0;
  PhaseTimes U;
  if (W.Fuzz) {
    U = runRounds(Probe, Jobs.size(), O.Seed, UntracedSec, Jobs.size(),
                  SetupBetweenOps,
                  [&](unsigned J, uint64_t) {
                    ++R.Attempted;
                    const Job &Jb = Jobs[J];
                    const Input &In = W.Inputs[Jb.In];
                    check::FuzzReport FR = check::runDifferentialFuzz(
                        Jb.CacheDiff ? cacheDiffOptions()
                                     : fuzzOptionsFor(In.FuzzSeed, Jb.K,
                                                      Jb.Regs));
                    BytesMoved += Jb.CacheDiff ? TextBytes : In.Text.size();
                    if (!FR.clean())
                      R.fail("fuzz-" + std::to_string(FR.Findings[0].Seed) +
                             ": " + FR.Findings[0].Kind + ": " +
                             FR.Findings[0].Detail);
                  });
  } else {
    U = runRounds(Probe, Jobs.size(), O.Seed, UntracedSec, Jobs.size(),
                  SetupBetweenOps,
                  [&](unsigned J, uint64_t) {
                    ++R.Attempted;
                    const Input &In = W.Inputs[Jobs[J].In];
                    TextCompileResult C =
                        compileTextModule(In.Text, W.TD, Jobs[J].K);
                    BytesMoved += In.Text.size() + C.AllocatedText.size();
                    if (!C.Ok) {
                      R.fail(In.Name + "/" + allocatorName(Jobs[J].K) + ": " +
                             C.Error);
                    } else if (Outputs[J].empty()) {
                      Outputs[J] = std::move(C.AllocatedText);
                    } else if (C.AllocatedText != Outputs[J]) {
                      R.fail(In.Name + "/" + allocatorName(Jobs[J].K) +
                             ": output differs between repeats");
                    }
                  });
  }
  while (Setups.size() < SetupReps)
    SetupBetweenOps(NextSetupAt);
  double PeakRss = selfPeakRssMb();
  std::vector<double> SetupSec;
  for (const auto &[Sec, ProbeSec] : Setups)
    SetupSec.push_back(Sec * U.FastestProbe / ProbeSec);

  std::vector<double> JobMs = opTimesMs(U, Jobs, W.Fuzz, W.Inputs.size());
  double P50 = median(JobMs);
  double TailP = tailPercentile(JobMs.size());
  double Tail = quantile(JobMs, TailP / 100.0);
  double RoundSec = 0; // one pass over the jobs
  for (double Ms : JobMs)
    RoundSec += Ms / 1e3;
  double RawMs = 0;
  for (double Ms : U.OpMs)
    RawMs += Ms;

  // --- traced phase --------------------------------------------------------
  Trace T;
  PhaseTimes TP;
  if (O.Trace) {
    // Counts are taken over the first complete round, so they repeat
    // exactly for a given seed.
    size_t CountedOps = Jobs.size();
    TP = runRounds(Probe, Jobs.size(), O.Seed, O.Seconds - UntracedSec,
                   CountedOps,
                   [](double) {}, [&](unsigned J, uint64_t OpIndex) {
                     ++R.Attempted;
                     T.Ops = OpIndex;
                     if (OpIndex == CountedOps)
                       T.freezeCounts();
                     const Job &Jb = Jobs[J];
                     const Input &In = W.Inputs[Jb.In];
                     std::string Err;
                     if (Jb.CacheDiff) {
                       Err = tracedCacheDiff(W, T);
                     } else if (W.Fuzz) {
                       ++T.OpsBy[Jb.K];
                       Err = tracedFuzz(In.FuzzSeed, Jb.K, Jb.Regs, T);
                     } else {
                       ++T.OpsBy[Jb.K];
                       std::string Out =
                           tracedCompile(In.Text, W.TD, Jb.K, T, Err);
                       if (Err.empty() && Outputs[J].empty())
                         Outputs[J] = std::move(Out);
                       else if (Err.empty() && Out != Outputs[J])
                         Err = "traced re-composition differs from "
                               "compileTextModule";
                     }
                     if (!Err.empty())
                       R.fail((Jb.CacheDiff ? std::string("fuzz-grid")
                                            : In.Name) +
                              ": " + Err);
                   });
    T.Ops = TP.Ops;
    T.freezeCounts();
  }

  // --- output checks -------------------------------------------------------
  Quality Q;
  checkOutputs(W, Pairs, Outputs, Q, R);

  if (O.Trace) {
    double Ops = static_cast<double>(TP.Ops) / JobsPerOp;
    double Counted = static_cast<double>(T.CountOps) / JobsPerOp;
    auto Ms = [&](Layer L) { return T.L[L].Sec * 1e3 / Ops; };
    auto Allocs = [&](Layer L) {
      return static_cast<double>(T.FrozenAllocs[L]) / Counted;
    };
    auto PerCounted = [&](uint64_t N) {
      return static_cast<double>(N) / Counted;
    };
    double OpSec = 0, LayerSec = 0;
    for (double Ms : TP.OpMs)
      OpSec += Ms / 1e3;
    for (unsigned L = 0; L < NumLayers; ++L)
      LayerSec += T.L[L].Sec;

    R.layer("ir.parse_ms", Ms(LParse), "ms");
    R.layer("ir.parse_mb_per_s",
            static_cast<double>(T.BytesParsed) / 1e6 / T.L[LParse].Sec,
            "MB/s");
    R.layer("ir.irverify_ms", Ms(LIrVerify), "ms");
    R.layer("ir.print_ms", Ms(LPrint), "ms");
    R.layer("ir.parse_allocs", Allocs(LParse), "count");
    R.layer("ir.print_allocs", Allocs(LPrint), "count");
    R.layer("ir.bytes_in", PerCounted(T.BytesIn), "bytes");
    R.layer("ir.bytes_out", PerCounted(T.BytesOut), "bytes");
    R.layer("ir.mem_line_share", MemShare, "ratio");
    R.layer("target.lower_ms", Ms(LLower), "ms");
    R.layer("passes.dce_ms", Ms(LDce), "ms");
    R.layer("passes.dce_allocs", Allocs(LDce), "count");
    R.layer("passes.dce_removed", PerCounted(T.DceRemoved), "count");

    // Analyses: timed once per input and register limit on a clone, then
    // charged to each traced compile of that input whose backend computes
    // them (a fuzz-grid slice compiles twice, cleanup off and on). The
    // cache differential's compiles are not in regalloc.alloc_ms, so they
    // are not charged.
    std::map<std::pair<unsigned, unsigned>, std::array<double, 3>> Uses;
    for (unsigned J : TP.OpJob) {
      const Job &Jb = Jobs[J];
      if (Jb.CacheDiff)
        continue;
      std::array<bool, 3> Computes = analysesOf(Jb.K);
      std::array<double, 3> &N = Uses[{Jb.In, Jb.Regs}];
      for (size_t A = 0; A < 3; ++A)
        N[A] += Computes[A] ? (W.Fuzz ? 2.0 : 1.0) : 0.0;
    }
    std::array<double, 3> Analysis = {0, 0, 0};
    for (const auto &[Key, N] : Uses) {
      std::array<double, 3> Sec = {0, 0, 0};
      timeAnalyses(W.Inputs[Key.first],
                   W.Fuzz ? fuzzTarget(Key.second) : W.TD, Sec[0], Sec[1],
                   Sec[2]);
      for (size_t A = 0; A < 3; ++A)
        Analysis[A] += Sec[A] * N[A];
    }
    R.layer("analysis.liveness_ms", Analysis[0] * 1e3 / Ops, "ms");
    R.layer("analysis.loops_ms", Analysis[1] * 1e3 / Ops, "ms");
    R.layer("analysis.lifetimes_ms", Analysis[2] * 1e3 / Ops, "ms");

    R.layer("regalloc.alloc_ms", Ms(LAlloc), "ms");
    R.layer("regalloc.allocs", Allocs(LAlloc), "count");
    R.layer("regalloc.spilled_temps", PerCounted(T.Spilled), "count");
    R.layer("regalloc.lifetime_splits", PerCounted(T.Splits), "count");
    R.layer("regalloc.static_spill_instrs", PerCounted(T.StaticSpills),
            "count");
    R.layer("regalloc.dataflow_iterations", PerCounted(T.DataflowIters),
            "count");
    for (AllocatorKind K : Kinds) {
      double KOps = static_cast<double>(T.OpsBy[K]) /
                    static_cast<double>(Limits.size());
      R.layer(std::string("regalloc.") + allocatorName(K) + ".alloc_ms",
              KOps > 0 ? T.AllocBy[K].Sec * 1e3 / KOps : 0, "ms");
      R.layer(std::string("regalloc.") + allocatorName(K) + ".cycles",
              static_cast<double>(Q.CyclesBy[K]), "count");
    }
    R.layer("driver.check_ms", Ms(LCheck), "ms");
    if (W.Fuzz) { // layers only the oracle exercises
      R.layer("workloads.gen_ms", Ms(LGen), "ms");
      R.layer("driver.clone_ms", Ms(LClone), "ms");
      R.layer("check.verify_ms", Ms(LVerify), "ms");
      R.layer("check.verify_allocs", Allocs(LVerify), "count");
      R.layer("check.oracle_other_ms", Ms(LOther), "ms");
      R.layer("vm.ref_run_ms", Ms(LVmRef), "ms");
      R.layer("vm.alloc_run_ms", Ms(LVmAlloc), "ms");
      R.layer("vm.instrs_per_s",
              static_cast<double>(T.VmInstrs) /
                  (T.L[LVmRef].Sec + T.L[LVmAlloc].Sec),
              "1/s");
    }
    R.layer("obs.layer_coverage", LayerSec / OpSec, "ratio");
    R.layer("obs.trace_overhead",
            median(opTimesMs(TP, Jobs, W.Fuzz, W.Inputs.size())) / P50 - 1,
            "ratio", "traced / untraced op_p50_ms - 1");
  }

  char Note[160];
  std::snprintf(Note, sizeof(Note),
                "jobs / one pass at per-job medians; %zu rounds, %llu ops, "
                "%.1f ops/s before the speed correction",
                U.Rounds, (unsigned long long)U.Ops,
                static_cast<double>(U.Ops) / JobsPerOp * 1e3 / RawMs);
  R.e2e("ops_per_s", static_cast<double>(JobMs.size()) / RoundSec, "ops/s",
        Note);
  R.e2e("op_p50_ms", P50, "ms", "median of per-job medians");
  std::snprintf(Note, sizeof(Note), "p%g of %zu per-job medians", TailP,
                JobMs.size());
  R.e2e("op_tail_ms", Tail, "ms", Note);
  R.e2e("setup_s", median(SetupSec), "s",
        "median of " + std::to_string(SetupSec.size()) + " set-ups");
  R.e2e("peak_rss_mb", PeakRss, "MiB");
  R.e2e("cycles", static_cast<double>(Q.Cycles), "count");
  R.e2e("spill_dyn_instrs", static_cast<double>(Q.SpillDyn), "count");
  R.e2e("code_instrs", static_cast<double>(Q.CodeInstrs), "count");
  R.e2e("bytes_per_op",
        static_cast<double>(BytesMoved) / static_cast<double>(U.Ops), "bytes");
  char Regime[160];
  std::snprintf(Regime, sizeof(Regime),
                "regime: mem_line_share %.4f over %llu input lines, %llu "
                "input bytes in %zu programs",
                MemShare, (unsigned long long)Lines,
                (unsigned long long)TextBytes, W.Inputs.size());
  R.Notes.push_back(Regime);
  return 0;
}

} // namespace lsrabench
