//===- regalloc/Allocator.h - Allocator façade -----------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry points: pick an allocator, run it on a function or
/// module, and get back the statistics the paper's evaluation reports
/// (static spill counts by category, spilled temporaries, compile time,
/// coloring iterations, interference-graph edges).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_REGALLOC_ALLOCATOR_H
#define LSRA_REGALLOC_ALLOCATOR_H

#include "ir/Module.h"
#include "target/Target.h"

#include <cstdint>
#include <functional>
#include <string>

namespace lsra {

namespace cache {
class CompileCache;
} // namespace cache

namespace obs {
struct RequestTrace;
} // namespace obs

class FunctionAnalyses;

/// Backend ids are stable and append-only: the integer value participates
/// in compile-cache keys (cache::makeModuleKey / makeFunctionKey), so
/// enumerators are never reordered or removed. The authoritative list of
/// backends — names, aliases, capabilities, entry points — lives in
/// regalloc/Registry.h; consumers should enumerate the registry rather
/// than switch over this enum.
enum class AllocatorKind {
  SecondChanceBinpack, ///< the paper's contribution (§2)
  GraphColoring,       ///< George/Appel iterated register coalescing
  TwoPassBinpack,      ///< GEM-style binpacking without second chance
  PolettoScan,         ///< Poletto et al. interval linear scan (§4)
  EbbScan,             ///< one-pass EBB second chance (regalloc/EbbScan.h)
};

const char *allocatorName(AllocatorKind K);

/// Inverse of allocatorName, also accepting the short CLI aliases
/// ("binpack", "coloring", "twopass", "poletto", "ebb"). The one parser
/// shared by the CLI, the bench tools, and the server's wire-protocol
/// decoding; backed by the AllocatorRegistry.
bool parseAllocatorName(const std::string &Name, AllocatorKind &Out);

/// The semantic allocation knobs: everything here changes the allocated
/// code, so the set doubles as the compile cache's options key (see
/// fingerprint()). Execution-shaping settings that cannot change the
/// output — thread counts, verification, caching itself — live in
/// ExecOptions and are deliberately excluded.
///
/// Every public entry point (allocateFunction / allocateModule /
/// compileModule / compileTextModule) takes an explicit
/// (AllocOptions, ExecOptions) pair with the same one default: `{}`,
/// meaning the paper's configuration (second chance + coalescing +
/// iterative consistency + peephole + callee saves, no spill cleanup),
/// run sequentially with no cache and no verification.
struct AllocOptions {
  /// §2.5 "early second chance": on a convention eviction, move to a free
  /// register instead of emitting a store now and a load later.
  bool EarlySecondChance = true;
  /// §2.5 move-coalescing check during the scan.
  bool MoveCoalesce = true;
  /// §2.4 iterative consistency dataflow vs the §2.6 conservative
  /// linear-time initialisation.
  enum class ConsistencyMode { Iterative, Conservative } Consistency =
      ConsistencyMode::Iterative;
  /// Run the post-allocation peephole that deletes self-moves (the paper
  /// always runs it; switchable for ablation).
  bool RunPeephole = true;
  /// Insert callee-save prologues/epilogues after allocation.
  bool CalleeSaves = true;
  /// The §2.4 follow-on optimisation the paper describes but does not
  /// implement: meet store/load pairs to the same stack location and
  /// replace them with register moves (passes/SpillCleanup). Off by
  /// default to match the paper's configuration.
  bool SpillCleanup = false;

  bool operator==(const AllocOptions &R) const {
    return EarlySecondChance == R.EarlySecondChance &&
           MoveCoalesce == R.MoveCoalesce && Consistency == R.Consistency &&
           RunPeephole == R.RunPeephole && CalleeSaves == R.CalleeSaves &&
           SpillCleanup == R.SpillCleanup;
  }
  bool operator!=(const AllocOptions &R) const { return !(*this == R); }

  /// Stable 64-bit fingerprint over every semantic knob, salted with a
  /// schema version so adding a knob invalidates old cache entries rather
  /// than aliasing them. Equal options ⇔ equal fingerprints.
  uint64_t fingerprint() const;
};

/// How a compilation runs, not what it produces. Nothing in here may
/// influence the allocated code — that invariant is what makes it safe to
/// exclude ExecOptions from the compile-cache key (and it is enforced by
/// tests/cache_test.cpp and the fuzzer's cache-differential mode).
struct ExecOptions {
  /// Worker threads for allocateModule/compileModule. Functions are
  /// allocated independently and the per-function statistics are merged in
  /// function-index order, so results are identical for any thread count.
  /// 1 = sequential (default); 0 = one worker per hardware thread.
  unsigned Threads = 1;
  /// Run the check/Verifier translation validator over the result
  /// (compileTextModule only: it needs the pre-allocation module to compare
  /// against). A failed proof is reported as a compile error.
  bool VerifyAlloc = false;
  /// Content-addressed compile cache consulted by the module-level entry
  /// points (borrowed, not owned; nullptr = no caching). compileTextModule
  /// keys whole modules on the raw request text; allocateModule /
  /// compileModule additionally key each function on its canonical printed
  /// form, so repeated functions hit across modules.
  cache::CompileCache *Cache = nullptr;
  /// Request-scoped span chain (borrowed, not owned; nullptr = no
  /// tracing). The server threads its sampled obs::RequestTrace through
  /// here so the pipeline phases (cache-probe, parse, alloc, emit) land on
  /// the owning request's timeline. Pure observation — may not influence
  /// the allocated code, same invariant as the rest of ExecOptions.
  obs::RequestTrace *ReqTrace = nullptr;
};

struct AllocStats {
  // Static spill-code counts by category.
  unsigned EvictLoads = 0;
  unsigned EvictStores = 0;
  unsigned EvictMoves = 0;
  unsigned ResolveLoads = 0;
  unsigned ResolveStores = 0;
  unsigned ResolveMoves = 0;

  unsigned RegCandidates = 0;  ///< temporaries considered for allocation
  unsigned SpilledTemps = 0;   ///< temporaries that ever lived in memory
  unsigned LifetimeSplits = 0; ///< second-chance splits performed
  unsigned MovesCoalesced = 0;
  unsigned SplitEdges = 0;
  unsigned DataflowIterations = 0; ///< consistency dataflow (binpack)
  unsigned ColoringIterations = 0; ///< build/color rounds (coloring)
  /// Interference edges added, summed over every build round of every
  /// register class and counting edges to precolored registers (coloring).
  /// Not the size of the final graph.
  unsigned InterferenceEdges = 0;
  /// Core allocation time summed over functions. With Threads > 1 this is
  /// aggregate CPU seconds (the paper's Table 3 metric, unchanged by
  /// parallelism); WallSeconds is the elapsed module time.
  double AllocSeconds = 0;
  /// Wall-clock seconds for the whole module-level run (set by
  /// allocateModule/compileModule only; 0 for single-function calls).
  double WallSeconds = 0;

  unsigned staticSpillInstrs() const {
    return EvictLoads + EvictStores + EvictMoves + ResolveLoads +
           ResolveStores + ResolveMoves;
  }

  AllocStats &operator+=(const AllocStats &R);
};

/// Allocate registers for \p F with allocator \p K. The function must have
/// its calls lowered. On return the function contains no virtual
/// registers. The scan is followed by finishAllocation's tail.
AllocStats allocateFunction(Function &F, const TargetDesc &TD,
                            AllocatorKind K, const AllocOptions &AO = {});

/// As above, with analyses of \p F's current IR already in \p FA (the
/// liveness that dead-code elimination hands over) used instead of solved
/// again. \p FA is stale afterwards.
AllocStats allocateFunction(Function &F, const TargetDesc &TD,
                            AllocatorKind K, const AllocOptions &AO,
                            FunctionAnalyses &FA);

/// The post-allocation tail that allocateFunction runs after the scan, in
/// this order and each only when \p AO asks for it: the §2.4 spill cleanup,
/// the self-move peephole and callee-save insertion. None of the three is
/// read by the scan itself, so a function allocated with all three off and
/// then finished here is byte-identical to allocateFunction with \p AO. The
/// fuzz oracle relies on this to scan once and finish one copy per cleanup
/// setting.
void finishAllocation(Function &F, const TargetDesc &TD,
                      const AllocOptions &AO);

/// Allocate the function at index \p Idx of \p M, consulting EO.Cache (if
/// any) keyed on the function's canonical printed text. On a hit the cached
/// allocated body replaces the function and the cached statistics are
/// returned; on a miss the function is allocated and the result inserted.
/// With EO.Cache == nullptr this is exactly allocateFunction. A miss
/// allocates with \p FA when given (see allocateFunction).
AllocStats allocateFunctionInModule(Module &M, unsigned Idx,
                                    const TargetDesc &TD, AllocatorKind K,
                                    const AllocOptions &AO = {},
                                    const ExecOptions &EO = {},
                                    FunctionAnalyses *FA = nullptr);

/// Allocate every function in \p M; returns the statistics merged in
/// function-index order. With EO.Threads != 1 functions are farmed out
/// to a worker pool; results are bit-identical to the sequential run.
AllocStats allocateModule(Module &M, const TargetDesc &TD, AllocatorKind K,
                          const AllocOptions &AO = {},
                          const ExecOptions &EO = {});

/// A pass run on each function right before it is allocated, in the
/// worker that allocates it, with the analyses the allocation then uses.
using PrepareFunction = std::function<void(Function &, FunctionAnalyses &)>;

/// As above, running \p Prepare on each function first. compileModule
/// passes dead-code elimination, whose liveness the allocation then
/// reuses; it lives only from one function's DCE to its allocation.
AllocStats allocateModule(Module &M, const TargetDesc &TD, AllocatorKind K,
                          const AllocOptions &AO, const ExecOptions &EO,
                          const PrepareFunction &Prepare);

/// Effective worker count for \p Requested threads over \p NumItems
/// independent work items (0 = hardware concurrency; capped by NumItems).
unsigned resolveThreadCount(unsigned Requested, unsigned NumItems);

} // namespace lsra

#endif // LSRA_REGALLOC_ALLOCATOR_H
