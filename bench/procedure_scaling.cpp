//===- bench/procedure_scaling.cpp - One procedure, growing -----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// How each backend's compile time grows with the size of one procedure:
// random program seed 1 with no helper functions at 300, 1,200, 4,800 and
// 19,200 statements, compiled at 8 int + 8 fp registers by all five
// backends, one thread. Each row gives the procedure's blocks and vregs,
// the compileModule wall time (lowering, DCE and allocation), the core
// AllocSeconds, the per-phase split from the trace spans (DCE, which
// includes the liveness solve it hands to the allocator; the allocator's
// own liveness, loops and lifetimes; the scan apart from binpacking's
// dataflow and resolution phases; those two phases) and the row's peak
// RSS.
//
// Every row runs in a forked child under a fixed address-space limit,
// set with setrlimit on that child only, so a row that needs more (dense
// liveness at 19,200 statements takes gigabytes) prints "over memory cap"
// instead of exhausting the host. A row also stops at a fixed CPU-time
// limit and then prints "over time cap".
//
// Run:  ./build/bench/procedure_scaling
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "regalloc/Registry.h"
#include "workloads/RandomProgram.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace lsra;

namespace {

constexpr rlim_t AddressSpaceCap = rlim_t(3) << 30; ///< bytes per row
constexpr rlim_t CpuCapSeconds = 300;               ///< per row
constexpr int OverMemoryExit = 3;

/// Compile one row and print it; runs in the forked child.
int runRow(unsigned Statements, AllocatorKind K) {
  RandomProgramOptions RO;
  RO.Statements = Statements;
  RO.HelperFuncs = 0;
  std::unique_ptr<Module> M = buildRandomProgram(1, RO);
  unsigned Blocks = 0, VRegs = 0;
  for (const auto &F : M->functions()) {
    Blocks += F->numBlocks();
    VRegs += F->numVRegs();
  }
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(8, 8);

  obs::Tracer &T = obs::Tracer::global();
  T.enable();
  AllocStats S = compileModule(*M, TD, K);
  T.disable();
  std::map<std::string, double> Ms;
  for (const obs::TraceEvent &E : T.snapshot())
    Ms[E.Name] += static_cast<double>(E.DurNs) / 1e6;
  double Scan = Ms["scan"] - Ms["binpack.dataflow"] - Ms["binpack.resolution"];

  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  std::printf("%-22s %6u %6u %7u %10.1f %10.1f %8.1f %8.1f %8.1f %8.1f "
              "%8.1f %8.1f %8.1f %8.0f\n",
              allocatorName(K), Statements, Blocks, VRegs,
              S.WallSeconds * 1e3, S.AllocSeconds * 1e3, Ms["dce"],
              Ms["liveness"], Ms["loops"], Ms["lifetimes"], Scan,
              Ms["binpack.dataflow"], Ms["binpack.resolution"],
              static_cast<double>(RU.ru_maxrss) / 1024.0);
  std::fflush(stdout);
  return 0;
}

} // namespace

int main() {
  std::printf("One procedure, growing: random program seed 1, no helpers, "
              "8+8 registers, one thread.\nEach row runs in a child limited "
              "to %llu GiB of address space and %llu s of CPU.\n"
              "Times in ms; dce includes the liveness solve it hands to the "
              "allocator.\n\n",
              static_cast<unsigned long long>(AddressSpaceCap >> 30),
              static_cast<unsigned long long>(CpuCapSeconds));
  std::printf("%-22s %6s %6s %7s %10s %10s %8s %8s %8s %8s %8s %8s %8s %8s\n",
              "backend", "stmts", "blocks", "vregs", "wall", "alloc", "dce",
              "liveness", "loops", "lifetime", "scan", "dataflow", "resolve",
              "rss_mb");
  std::fflush(stdout);
  int Failures = 0;
  for (unsigned Statements : {300u, 1200u, 4800u, 19200u})
    for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
      pid_t Pid = fork();
      if (Pid < 0) {
        std::perror("fork");
        return 1;
      }
      if (Pid == 0) {
        rlimit AS{AddressSpaceCap, AddressSpaceCap};
        rlimit CPU{CpuCapSeconds, CpuCapSeconds};
        setrlimit(RLIMIT_AS, &AS);
        setrlimit(RLIMIT_CPU, &CPU);
        try {
          std::_Exit(runRow(Statements, K));
        } catch (const std::bad_alloc &) {
          std::_Exit(OverMemoryExit);
        }
      }
      int Status = 0;
      waitpid(Pid, &Status, 0);
      if (WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        continue;
      const char *Why = "failed";
      if (WIFEXITED(Status) && WEXITSTATUS(Status) == OverMemoryExit)
        Why = "over memory cap";
      else if (WIFSIGNALED(Status) &&
               (WTERMSIG(Status) == SIGXCPU || WTERMSIG(Status) == SIGKILL))
        Why = "over time cap";
      else
        ++Failures;
      std::printf("%-22s %6u %s\n", allocatorName(K), Statements, Why);
      std::fflush(stdout);
    }
  return Failures ? 1 : 0;
}
