//===- bench/cache_warmstart.cpp - Compile-cache warm start ------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// What the compile cache buys a repeated request, per corpus workload under
// second-chance binpacking: a cold compileTextModule (parse, lower, DCE,
// allocate, print; best of 5), an in-process L1 hit (best of 20), and the
// first compile of a process whose L1 is empty but whose shared-memory L2
// segment was filled by another process (best of 5, a fresh L1 each rep).
// The corpus is the data-heavy regime: most of each module's text is its
// memory image, so the cold column is mostly parse and print. Every output
// must be byte-identical to an uncached reference compile; the program
// exits non-zero on any mismatch.
//
// Run:  ./build/bench/cache_warmstart
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "cache/SharedCache.h"
#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace lsra;

namespace {

constexpr AllocatorKind Kind = AllocatorKind::SecondChanceBinpack;

struct Row {
  const char *Workload;
  std::string Text;
  std::string Ref; ///< uncached reference output
  double ColdSeconds = 1e9;
  double L1Seconds = 1e9;
  double L2Seconds = 1e9;
  bool Identical = true;
};

const TargetDesc Target = TargetDesc::alphaLike();

/// Time one compile of \p R's text; the output must match the reference.
TextCompileResult timedCompile(Row &R, const ExecOptions &EO, double &Best) {
  Timer T;
  T.start();
  TextCompileResult C = compileTextModule(R.Text, Target, Kind, {}, EO);
  T.stop();
  Best = std::min(Best, T.seconds());
  R.Identical = R.Identical && C.Ok && C.AllocatedText == R.Ref;
  return C;
}

/// Cold (no cache) and in-process L1 hits. The L1 is filled by one compile
/// that must miss; every timed repeat must hit.
void measureInProcess(Row &R) {
  ExecOptions Cacheless;
  for (int Rep = 0; Rep < 5; ++Rep)
    timedCompile(R, Cacheless, R.ColdSeconds);

  cache::CompileCache L1;
  ExecOptions EO;
  EO.Cache = &L1;
  double Fill = 1e9; // the compile that fills the L1; not reported
  bool Hits = !timedCompile(R, EO, Fill).CacheHit;
  for (int Rep = 0; Rep < 20; ++Rep)
    Hits = timedCompile(R, EO, R.L1Seconds).CacheHit && Hits;
  R.Identical = R.Identical && Hits;
}

/// Cross-process warm start: a forked child cold-compiles every workload
/// with an L1+L2 stack (publishing each result into a fresh segment) and
/// exits; then this process times its own first compile of each module
/// through a fresh L1 per rep, so every timed rep pays the real L2 path
/// (probe, validate, copy, L1 promotion) and never an L1 hit.
bool measureCrossProcess(std::vector<Row> &Rows) {
  cache::SharedCacheConfig SC;
  SC.Path = "/tmp/lsra-cache-warmstart." + std::to_string(::getpid()) +
            ".seg";
  SC.MaxBytes = 64u << 20;
  SC.StartAgent = false; // deterministic: publishes land synchronously
  ::unlink(SC.Path.c_str());

  // Forked before this process maps the segment, so its first probe is a
  // true cross-process read of memory it never wrote.
  pid_t Child = ::fork();
  if (Child == 0) {
    std::string Err;
    auto L2 = cache::SharedCache::open(SC, Err);
    if (!L2)
      ::_exit(2);
    cache::CompileCache L1;
    L1.attachL2(L2.get());
    ExecOptions EO;
    EO.Cache = &L1;
    for (const Row &R : Rows) {
      TextCompileResult C = compileTextModule(R.Text, Target, Kind, {}, EO);
      if (!C.Ok || C.CacheHit)
        ::_exit(3);
    }
    ::_exit(0);
  }
  int Status = 0;
  std::string Err = "L2 filler failed";
  std::unique_ptr<cache::SharedCache> L2;
  if (Child > 0 && ::waitpid(Child, &Status, 0) == Child &&
      WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
    L2 = cache::SharedCache::open(SC, Err);
  if (!L2) {
    std::fprintf(stderr, "cache_warmstart: %s\n", Err.c_str());
    ::unlink(SC.Path.c_str());
    return false;
  }
  for (Row &R : Rows)
    for (int Rep = 0; Rep < 5; ++Rep) {
      cache::CompileCache L1; // fresh per rep: no L1 shortcut
      L1.attachL2(L2.get());
      ExecOptions EO;
      EO.Cache = &L1;
      TextCompileResult C = timedCompile(R, EO, R.L2Seconds);
      R.Identical = R.Identical && C.CacheHit && C.CacheL2;
    }
  L2.reset();
  ::unlink(SC.Path.c_str());
  return true;
}

} // namespace

int main() {
  std::vector<Row> Rows;
  for (const WorkloadSpec &W : allWorkloads()) {
    Row R;
    R.Workload = W.Name;
    std::ostringstream OS;
    printModule(OS, *W.Build());
    R.Text = OS.str();
    R.Ref = compileTextModule(R.Text, Target, Kind).AllocatedText;
    Rows.push_back(std::move(R));
  }
  for (Row &R : Rows)
    measureInProcess(R);
  if (!measureCrossProcess(Rows))
    return 1;

  std::printf("Compile-cache warm start, %s, corpus workloads (data-heavy)\n"
              "cold: best of 5 uncached; L1 hit: best of 20; first L2 hit: "
              "best of 5, fresh L1,\nsegment filled by a forked process\n\n",
              allocatorName(Kind));
  std::printf("%-10s %9s %9s %9s %9s %9s %s\n", "workload", "cold us",
              "L1 us", "L2 us", "cold/L1", "cold/L2", "output");
  std::printf("---------------------------------------------------------------"
              "----------\n");
  bool AllIdentical = true;
  for (const Row &R : Rows) {
    AllIdentical = AllIdentical && R.Identical;
    std::printf("%-10s %9.1f %9.2f %9.2f %8.1fx %8.1fx %s\n", R.Workload,
                R.ColdSeconds * 1e6, R.L1Seconds * 1e6, R.L2Seconds * 1e6,
                R.ColdSeconds / R.L1Seconds, R.ColdSeconds / R.L2Seconds,
                R.Identical ? "identical" : "MISMATCH");
  }
  return AllIdentical ? 0 : 1;
}
