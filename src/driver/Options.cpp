//===- driver/Options.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Options.h"

#include "cache/SharedCache.h"

#include <cstdlib>

using namespace lsra;

bool lsra::parseCompileFlag(const std::string &Arg, CompileFlags &F,
                            std::string &Err) {
  Err.clear();
  auto Value = [&Arg](size_t PrefixLen) { return Arg.substr(PrefixLen); };
  if (Arg.rfind("--allocator=", 0) == 0) {
    if (!parseAllocatorName(Value(12), F.Kind))
      Err = "unknown allocator '" + Value(12) + "'";
    return true;
  }
  if (Arg.rfind("--regs=", 0) == 0) {
    if (!parseRegLimit(Value(7), F.Regs, Err))
      Err = "--regs: " + Err;
    return true;
  }
  if (Arg.rfind("--threads=", 0) == 0) {
    F.Exec.Threads =
        static_cast<unsigned>(std::strtoul(Arg.c_str() + 10, nullptr, 10));
    return true;
  }
  if (Arg == "--cleanup") {
    F.Alloc.SpillCleanup = true;
    return true;
  }
  if (Arg == "--verify-alloc") {
    F.Exec.VerifyAlloc = true;
    return true;
  }
  if (Arg.rfind("--consistency=", 0) == 0) {
    std::string V = Value(14);
    if (V == "iterative")
      F.Alloc.Consistency = AllocOptions::ConsistencyMode::Iterative;
    else if (V == "conservative")
      F.Alloc.Consistency = AllocOptions::ConsistencyMode::Conservative;
    else
      Err = "unknown consistency mode '" + V + "'";
    return true;
  }
  if (Arg == "--no-second-chance") {
    F.Alloc.EarlySecondChance = false;
    return true;
  }
  if (Arg == "--no-coalesce") {
    F.Alloc.MoveCoalesce = false;
    return true;
  }
  if (Arg.rfind("--cache-mb=", 0) == 0) {
    F.CacheMb = std::strtoul(Arg.c_str() + 11, nullptr, 10);
    return true;
  }
  if (Arg == "--no-cache") {
    F.NoCache = true;
    return true;
  }
  if (Arg.rfind("--l2-path=", 0) == 0) {
    F.L2Path = Value(10);
    return true;
  }
  if (Arg.rfind("--l2-mb=", 0) == 0) {
    F.L2Mb = std::strtoul(Arg.c_str() + 8, nullptr, 10);
    return true;
  }
  return false;
}

const char *lsra::compileFlagsHelp() {
  return "  --allocator=binpack|coloring|twopass|poletto|ebb\n"
         "  --regs=N       restrict the allocatable file to N per class\n"
         "                 (3 to 25; 0 = the full file)\n"
         "  --threads=N    allocate functions on N workers (0 = auto)\n"
         "  --cleanup      enable the spill-cleanup pass\n"
         "  --verify-alloc prove the allocation correct\n"
         "  --consistency=iterative|conservative  §2.4 vs §2.6 dataflow\n"
         "  --no-second-chance --no-coalesce      §2.5 ablations\n"
         "  --cache-mb=N   compile-cache budget in MiB (default 64)\n"
         "  --no-cache     disable the compile cache\n"
         "  --l2-path=FILE shared-memory L2 cache segment (cross-process)\n"
         "  --l2-mb=N      L2 segment budget in MiB (default 256)\n";
}

TargetDesc lsra::targetForFlags(const CompileFlags &F) {
  return targetForRegLimit(F.Regs);
}

std::unique_ptr<cache::CompileCache>
lsra::makeCompileCache(const CompileFlags &F) {
  if (F.NoCache || F.CacheMb == 0)
    return nullptr;
  cache::CacheConfig C;
  C.MaxBytes = F.CacheMb << 20;
  return std::make_unique<cache::CompileCache>(C);
}

std::unique_ptr<cache::SharedCache>
lsra::makeSharedCache(const CompileFlags &F, std::string &Err) {
  Err.clear();
  // The L2 tier only ever fills the L1; without an L1 there is nothing to
  // promote into, so --no-cache implies no L2 either.
  if (F.L2Path.empty() || F.NoCache || F.L2Mb == 0)
    return nullptr;
  cache::SharedCacheConfig C;
  C.Path = F.L2Path;
  C.MaxBytes = F.L2Mb << 20;
  return cache::SharedCache::open(C, Err);
}
