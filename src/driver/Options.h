//===- driver/Options.h - Shared compile-flag parsing ----------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One parser for the compile-shaping flags every front end accepts. The
/// CLI (`lsra run|serve|loadgen`), the bench tools, and the server's wire
/// protocol used to each parse allocator names and option flags their own
/// way; they all funnel through CompileFlags now, so a flag means the same
/// thing everywhere and new options are added in exactly one place.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_DRIVER_OPTIONS_H
#define LSRA_DRIVER_OPTIONS_H

#include "cache/CompileCache.h"
#include "regalloc/Allocator.h"
#include "target/Target.h"

#include <memory>
#include <string>

namespace lsra {

/// Everything a compile request can be shaped by, in parsed form. The
/// semantic knobs land in Alloc (and therefore key the compile cache); the
/// execution knobs land in Exec; cache sizing is kept separately because
/// the cache object itself outlives any single request.
struct CompileFlags {
  AllocatorKind Kind = AllocatorKind::SecondChanceBinpack;
  unsigned Regs = 0; ///< per-class register limit (0 = full machine)
  AllocOptions Alloc;
  ExecOptions Exec; ///< Exec.Cache stays null; callers wire their cache in
  size_t CacheMb = 64; ///< --cache-mb=N budget for makeCompileCache
  bool NoCache = false; ///< --no-cache
  std::string L2Path;  ///< --l2-path=FILE shared L2 segment (empty = off)
  size_t L2Mb = 256;   ///< --l2-mb=N segment budget for makeSharedCache
};

/// Consume one command-line argument if it is a shared compile flag:
///   --allocator=K --regs=N --threads=N --cleanup --verify-alloc
///   --consistency=iterative|conservative --no-second-chance --no-coalesce
///   --cache-mb=N --no-cache
/// Returns true when \p Arg was recognised; a recognised flag with a bad
/// value sets \p Err (empty otherwise). Unrecognised flags return false so
/// callers can layer their own options on top.
bool parseCompileFlag(const std::string &Arg, CompileFlags &F,
                      std::string &Err);

/// The usage text for the flags parseCompileFlag understands.
const char *compileFlagsHelp();

/// The Alpha-like target, restricted to F.Regs registers per class when
/// that is non-zero.
TargetDesc targetForFlags(const CompileFlags &F);

/// Build the compile cache the flags describe: null when --no-cache (or a
/// zero budget), otherwise an LRU cache of CacheMb megabytes.
std::unique_ptr<cache::CompileCache> makeCompileCache(const CompileFlags &F);

/// Open the shared L2 segment the flags describe: null (without error)
/// when no --l2-path was given or --no-cache is set; null with
/// \p Err set when the path exists but cannot be mapped. Callers attach
/// the result to their CompileCache (attachL2) and must keep it alive
/// until the cache is destroyed.
std::unique_ptr<cache::SharedCache> makeSharedCache(const CompileFlags &F,
                                                    std::string &Err);

} // namespace lsra

#endif // LSRA_DRIVER_OPTIONS_H
