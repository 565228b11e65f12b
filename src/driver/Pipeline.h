//===- driver/Pipeline.h - Whole-module compilation driver ----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard compilation pipeline used by every experiment, mirroring
/// §3 of the paper: dead-code elimination, calling-convention lowering,
/// register allocation (one of the four allocators), the move-removing
/// peephole, and callee-save insertion. Everything except the central
/// register-assignment algorithm is identical across allocators — the
/// paper's "identical in every respect except the central register
/// assignment algorithms" setup.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_DRIVER_PIPELINE_H
#define LSRA_DRIVER_PIPELINE_H

#include "regalloc/Allocator.h"
#include "vm/VM.h"

#include <functional>

namespace lsra {

/// Run the full pipeline over \p M. On return every function is fully
/// allocated (no virtual registers). Returns the summed allocator
/// statistics. With EO.Cache set, each lowered function is looked up by
/// its canonical printed text before being allocated.
AllocStats compileModule(Module &M, const TargetDesc &TD, AllocatorKind K,
                         const AllocOptions &AO = {},
                         const ExecOptions &EO = {});

/// Tuning for compileModuleStreaming.
struct StreamOptions {
  /// Functions per worker grab (chunked dynamic self-scheduling).
  unsigned ChunkSize = 8;
  /// In-flight window, in chunks per worker: a worker may not start
  /// function I until I < emitted + Threads * ChunkSize * WindowChunks.
  /// Must be >= 1; larger windows tolerate more cost skew between
  /// functions before workers stall, at the price of more retained bodies.
  unsigned WindowChunks = 4;
};

/// Function-at-a-time pipeline over a module whose bodies are produced on
/// demand. For each function index in [0, M.numFunctions()):
///   1. \p BuildBody materialises the body of M.function(I) (no-op callback
///      if the bodies already exist);
///   2. the standard per-function pipeline runs (lowerCalls, DCE,
///      allocation with \p K);
///   3. \p Emit observes the allocated function — calls arrive in strict
///      index order regardless of EO.Threads;
///   4. the body is released (Function::releaseBody), returning its arena.
///
/// Peak memory is therefore bounded by the module shell plus the in-flight
/// window of function bodies (at most EO.Threads * SO.ChunkSize *
/// SO.WindowChunks), not by the whole module. Statistics are merged in
/// function-index order, so they are bit-identical for any thread count.
AllocStats compileModuleStreaming(
    Module &M, const TargetDesc &TD, AllocatorKind K,
    const std::function<void(Module &, unsigned)> &BuildBody,
    const std::function<void(unsigned, const Function &)> &Emit,
    const AllocOptions &AO = {}, const ExecOptions &EO = {},
    const StreamOptions &SO = {});

/// Result of one text-in/text-out compilation (see compileTextModule).
struct TextCompileResult {
  bool Ok = false;
  std::string Error;    ///< parse/verify diagnostic when !Ok
  unsigned ErrLine = 0; ///< parse-error position (0 = n/a)
  unsigned ErrCol = 0;
  std::string ErrToken;
  std::string AllocatedText; ///< printed module after allocation
  AllocStats Stats;
  bool CacheHit = false; ///< served whole from the module-level cache
  bool CacheL2 = false;  ///< the hit was filled from the shared L2 tier
  bool Ran = false; ///< RunAfter was requested and compilation succeeded
  RunResult Run;    ///< dynamic statistics when Ran
};

/// The compile service in one call: parse \p IRText, verify, run the full
/// pipeline, verify the allocation, and print the result; optionally
/// execute on the VM for dynamic counts. This is what the compile server
/// runs per request, and `lsra run` on a file is equivalent to it — so
/// serving and offline compilation cannot drift apart.
///
/// With EO.Cache set, the raw \p IRText is first looked up as a whole
/// module (a hit skips even parsing and returns the stored allocated text
/// and statistics, with CacheHit set); on a miss the per-function cache of
/// compileModule still applies, and the successful result is inserted at
/// module level.
TextCompileResult compileTextModule(const std::string &IRText,
                                    const TargetDesc &TD, AllocatorKind K,
                                    const AllocOptions &AO = {},
                                    const ExecOptions &EO = {},
                                    bool RunAfter = false);

/// Post-allocation structural check; returns an empty string when valid.
std::string checkAllocated(const Module &M);

/// Instruction budget of every checked run: runReference, runAllocated (so
/// each served run=1 request) and both runs of the fuzz oracle. The largest
/// built-in workload, li at 4 registers per class, executes 4.85 M
/// instructions; a program that spins stops here in well under a second.
constexpr uint64_t RunInstrBudget = 50'000'000;

/// Reference semantics of \p M: lower calls + DCE (same pre-passes as
/// compileModule), then run on the VM with virtual registers intact, within
/// RunInstrBudget instructions.
RunResult runReference(Module &M, const TargetDesc &TD);

/// Execute an allocated module with the machine-contract checks enabled
/// (caller-saved poisoning, callee-saved verification), within
/// RunInstrBudget instructions.
RunResult runAllocated(const Module &M, const TargetDesc &TD);

} // namespace lsra

#endif // LSRA_DRIVER_PIPELINE_H
