//===- support/ParallelFor.h - Parallel loops for compilation --*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked parallel-for over short-lived helper threads. Per-function
/// register allocation is embarrassingly parallel (every allocator mutates
/// only its own Function), so the module drivers farm functions out with
/// dynamic self-scheduling: threads pull the next unclaimed chunk from a
/// shared atomic counter, which balances the highly skewed per-function
/// costs (a 6000-candidate procedure next to ten 50-candidate ones)
/// without any work-size estimation.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SUPPORT_PARALLELFOR_H
#define LSRA_SUPPORT_PARALLELFOR_H

#include <functional>

namespace lsra {

/// Thread count for "use all hardware threads" requests (never 0).
unsigned defaultThreadCount();

/// Run Body(0..N-1) on the calling thread plus up to \p Threads - 1 helper
/// threads, which claim \p ChunkSize consecutive indices per grab from a
/// shared counter. Within a chunk the indices are visited in increasing
/// order, and chunks are claimed in increasing start order — properties
/// the streaming module driver relies on for its deterministic
/// index-order merge. Falls back to a plain loop when only one thread
/// would run. Body must be safe to invoke concurrently for distinct
/// indices. Every helper is joined before return; the first exception a
/// Body throws is then rethrown on the calling thread (a thread that
/// throws stops claiming chunks, the others finish theirs).
void parallelForChunked(unsigned N, unsigned Threads, unsigned ChunkSize,
                        const std::function<void(unsigned)> &Body);

/// parallelForChunked with one index per claim.
inline void parallelFor(unsigned N, unsigned Threads,
                        const std::function<void(unsigned)> &Body) {
  parallelForChunked(N, Threads, 1, Body);
}

} // namespace lsra

#endif // LSRA_SUPPORT_PARALLELFOR_H
