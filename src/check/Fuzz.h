//===- check/Fuzz.h - Differential allocator fuzzing -----------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzzing harness behind `lsra fuzz`: seeded random
/// programs (workloads/RandomProgram) are compiled with every allocator at
/// several register limits; each compile must pass the structural IR
/// verifier and the allocation verifier, and executing the allocated code
/// (with caller-saved poisoning and callee-saved checking) must reproduce
/// the virtual-register reference run's output trace and return value.
/// Any failure is a finding; findings are minimized by check/Reduce and can
/// be written to a corpus directory for regression replay.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_CHECK_FUZZ_H
#define LSRA_CHECK_FUZZ_H

#include "ir/Module.h"
#include "regalloc/Allocator.h"
#include "target/Target.h"
#include "vm/VM.h"
#include "workloads/RandomProgram.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace lsra {
namespace check {

/// One differential-oracle verdict for (program, allocator, register limit).
struct OracleResult {
  enum Status : uint8_t {
    Pass,      ///< allocation verified and behaviour matched
    Malformed, ///< the input program itself does not parse/verify
    Fail,      ///< wrong allocation: Kind/Detail describe the failure
  };
  Status St = Pass;
  std::string Kind;   ///< "structural" | "verifier" | "vm-error" | "mismatch"
  std::string Detail;

  bool pass() const { return St == Pass; }
  bool fail() const { return St == Fail; }
};

/// The part of the oracle that depends only on the program text and the
/// register limit: the module parsed, IR-verified, calls lowered and dead
/// code removed — the exact module every allocator consumes and the
/// allocation verifier's original — and its reference run. Every grid point
/// at this limit reads it; none writes it.
struct PreparedProgram {
  OracleResult Malformed; ///< St == Malformed when the text is rejected
  TargetDesc TD;
  std::unique_ptr<Module> M; ///< null when the text is rejected
  RunResult Ref;
};

/// Parse, verify, lower, DCE and run \p IRText once for register limit
/// \p RegLimit (0 = full machine).
PreparedProgram prepareOracle(const std::string &IRText, unsigned RegLimit);

/// Run the differential oracle for backend \p K of a prepared program at
/// every spill-cleanup setting in \p Cleanups, from one shared scan: a copy
/// of the module is allocated once with the post-allocation tail off, and
/// each setting finishes its own copy of that result (finishAllocation)
/// before the checks — the structural verifier, the allocation verifier,
/// and the allocated run against the reference run. Verdicts come in the
/// order of \p Cleanups. When \p Allocated is given it receives the
/// checked modules in the same order (none for a malformed program).
std::vector<OracleResult>
runOracleCleanups(const PreparedProgram &P, AllocatorKind K,
                  const std::vector<bool> &Cleanups,
                  std::vector<std::unique_ptr<Module>> *Allocated = nullptr);

/// The oracle for one grid point: runOracleCleanups with one setting.
OracleResult runOracle(const PreparedProgram &P, AllocatorKind K,
                       bool SpillCleanup = false);

/// prepareOracle followed by runOracle, for one point of one text.
OracleResult runOracle(const std::string &IRText, AllocatorKind K,
                       unsigned RegLimit, bool SpillCleanup = false);

struct FuzzOptions {
  uint64_t SeedStart = 1;
  unsigned Count = 100;
  /// Register limits to stress (0 = the full 25-per-class machine). Small
  /// limits force eviction, second chance, and resolution onto every path.
  std::vector<unsigned> RegLimits = {0, 8, 4};
  /// Allocators to grid over. Empty (the default) means every backend in
  /// the AllocatorRegistry — a newly registered backend joins the
  /// differential grid without touching the fuzzer.
  std::vector<AllocatorKind> Allocators = {};
  /// Also run every configuration with the spill-cleanup pass enabled.
  bool WithSpillCleanup = true;
  RandomProgramOptions Program;
  bool Reduce = true;          ///< minimize findings with check/Reduce
  std::string CorpusDir;      ///< when set, write failing programs here
  unsigned MaxFindings = 8;   ///< stop fuzzing after this many findings
  /// Cache-differential mode: additionally compile each (program,
  /// allocator) pair through compileTextModule twice against one shared
  /// compile cache — cold, then warm — and require the warm (cached)
  /// result to be byte-identical to the cold one and to pass the
  /// allocation verifier. Catches any cache key that is too coarse.
  bool WithCache = true;
  /// Worker threads (0 = one per hardware thread). Programs are checked
  /// in parallel, the cache differential runs them in order on one lane
  /// beside that work, and the report is assembled in program order, so it
  /// is byte-identical at any thread count.
  unsigned Threads = 1;
};

struct FuzzFinding {
  uint64_t Seed = 0;
  unsigned Regs = 0; ///< register limit (0 = full machine)
  AllocatorKind K = AllocatorKind::SecondChanceBinpack;
  bool SpillCleanup = false;
  std::string Kind;
  std::string Detail;
  std::string Program;    ///< the generated program text
  std::string Reduced;    ///< minimized reproducer (== Program if not reduced)
  std::string CorpusFile; ///< file written under CorpusDir, if any
};

struct FuzzReport {
  unsigned Programs = 0;
  unsigned Runs = 0;
  std::vector<FuzzFinding> Findings;
  bool clean() const { return Findings.empty(); }
};

/// Run the differential fuzz loop. \p Progress (may be null) receives
/// one-line progress and finding reports, in program order. Findings are
/// reduced one at a time in that order, and the run stops at the finding
/// that reaches MaxFindings as the sequential loop would.
FuzzReport runDifferentialFuzz(const FuzzOptions &Opts,
                               std::ostream *Progress = nullptr);

} // namespace check
} // namespace lsra

#endif // LSRA_CHECK_FUZZ_H
