//===- vm/VM.h - IR interpreter and dynamic counters -----------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interpreter for the IR. It plays the role of the paper's Alpha
/// hardware plus the HALT instrumentation tool: it executes programs before
/// or after register allocation, counts dynamic instructions by spill
/// category (Table 1/2, Figure 3), estimates cycles (the "run time"
/// column), and records an observable output trace used to check that an
/// allocation preserved program semantics.
///
/// Failure-injection switches model the machine contract:
///   - PoisonCallerSaved overwrites caller-saved registers around calls, so
///     code that wrongly keeps a value in a caller-saved register across a
///     call produces a detectably different trace;
///   - CheckCalleeSaved verifies the callee-saved registers are restored on
///     every return.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_VM_VM_H
#define LSRA_VM_VM_H

#include "ir/Module.h"
#include "target/Target.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lsra {

/// Dynamic execution statistics for one run.
struct RunStats {
  uint64_t Total = 0;  ///< dynamic instructions executed
  uint64_t Cycles = 0; ///< estimated cycles (deterministic model)
  std::array<uint64_t, 9> ByKind{}; ///< indexed by SpillKind

  uint64_t kind(SpillKind K) const {
    return ByKind[static_cast<unsigned>(K)];
  }
  /// Dynamic instructions attributable to allocator spill code (the six
  /// evict/resolve categories; callee-save traffic excluded, matching the
  /// paper's "allocation candidates only" accounting).
  uint64_t spillInstrs() const {
    uint64_t N = 0;
    for (unsigned K = 1; K <= 6; ++K)
      N += ByKind[K];
    return N;
  }
  double spillPercent() const {
    return Total ? 100.0 * static_cast<double>(spillInstrs()) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  int64_t ReturnValue = 0;
  std::vector<uint64_t> Output; ///< Emit/FEmit trace (doubles as bit images)
  RunStats Stats;
};

class VM {
public:
  struct Options {
    /// The most instructions a run executes; the next one fails the run.
    uint64_t MaxInstrs = 2'000'000'000;
    unsigned MaxCallDepth = 4096;
    unsigned MinMemWords = 1u << 16;
    bool PoisonCallerSaved = false;
    bool CheckCalleeSaved = false;
  };

  VM(const Module &M, const TargetDesc &TD) : M(M), TD(TD) {}
  VM(const Module &M, const TargetDesc &TD, Options Opts)
      : M(M), TD(TD), Opts(Opts) {}

  /// Execute the function named \p EntryName (default "main") against a
  /// fresh copy of the module's initial memory.
  RunResult run(const std::string &EntryName = "main");

private:
  const Module &M;
  const TargetDesc &TD;
  Options Opts;
};

/// Convenience: run \p M and require success (asserts otherwise). Used by
/// tests and benches.
RunResult runOrDie(const Module &M, const TargetDesc &TD,
                   VM::Options Opts = VM::Options(),
                   const std::string &EntryName = "main");

} // namespace lsra

#endif // LSRA_VM_VM_H
