//===- regalloc/EbbScan.h - One-pass EBB second-chance scan ----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fifth backend: a one-pass second-chance allocator over extended
/// basic blocks, the latency-optimal point the paper's compile-time story
/// (Table 3) gestures at and the shape both band0 JIT codebases ship. No
/// global liveness, no lifetime intervals, no consistency dataflow — the
/// scan walks the CFG in reverse post-order, grows each EBB as the tree of
/// join-free successors, and carries the binpacking state (register
/// occupancy, dirty bits, spill homes) down the tree recursively. Spills
/// happen at the point of loss, exactly as in §2's scan; at every edge
/// leaving an EBB the dirty register-resident temporaries are stored, so
/// memory is the canonical location on all cross-EBB edges and no
/// resolution pass is needed (the exit store IS the degenerate edge
/// repair).
///
/// The trade: more conservative than the full binpacker (values are
/// reloaded at every EBB head), but allocation is strictly one pass and
/// one rewrite, so a client that wants the fastest cold compile asks for
/// this backend by name.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_REGALLOC_EBBSCAN_H
#define LSRA_REGALLOC_EBBSCAN_H

#include "regalloc/Allocator.h"

namespace lsra {

class FunctionAnalyses;

/// Run the EBB one-pass scan on \p F (calls must be lowered). Leaves the
/// function fully allocated (no virtual registers). Does not run the
/// peephole or insert callee saves; allocateFunction() wraps those.
AllocStats runEbbScan(Function &F, const TargetDesc &TD,
                      const AllocOptions &Opts);

/// As above with the shared analysis cache. The EBB scan consumes no
/// global analyses — \p FA is accepted only so the backend fits the
/// registry's uniform entry-point shape; it is stale once this returns.
AllocStats runEbbScan(Function &F, const TargetDesc &TD,
                      const AllocOptions &Opts, FunctionAnalyses &FA);

} // namespace lsra

#endif // LSRA_REGALLOC_EBBSCAN_H
