//===- cache/SharedCache.h - Shared-memory L2 compile cache ----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-process tier of the compile cache: a file-backed shared-memory
/// segment holding module-level compile results, shared by every server
/// process that opens the same path. The in-process CompileCache stays L1;
/// this is L2 — a second process's first compile of a module the first
/// process already compiled is one directory probe plus one memcpy instead
/// of a full parse/allocate/print.
///
/// Segment layout (one mmap, geometry fixed at creation):
///
///   [SegHeader]   magic/version/geometry and the arena cursor
///   [directory]   BucketCount buckets x SlotsPerBucket seqlock slots,
///                 each naming a 128-bit CacheKey and an arena region
///   [value arena] log-structured: entries are bump-allocated and never
///                 freed in place; the cursor wraps when the arena fills
///                 and stale directory slots are detected at read time
///
/// Concurrency protocol (lock-free readers and writers, no threads of its
/// own):
///   - readers validate a slot with a seqlock (odd = write in progress;
///     re-read after copying out) and then validate the arena region
///     itself (bounds, entry magic, key echo, commit word, WordHash
///     checksum of stats and payload), so a torn write, a crashed writer,
///     a wrap overwrite or a corrupted slot is a clean miss, never a torn
///     value or a stray read outside the arena;
///   - a writer is whichever thread inserts a module entry into the L1: it
///     publishes before its compile returns. It claims arena space with a
///     CAS bump (wrapping to offset 0 when full) and a directory slot by
///     CAS-ing its sequence number odd; the entry is fully written and its
///     commit word published with release ordering before the slot is;
///   - nothing in the segment is ever locked, so a SIGKILLed process can
///     never wedge the cache — at worst it leaks one mid-write slot,
///     which the stale-slot reclaimer eventually recycles.
///
/// Coherence is the key alone: a key covers the module text, the
/// AllocOptions fingerprint, the allocator and the target fingerprint, and
/// allocation is deterministic for a fixed key, so an entry never goes
/// stale and nothing is ever invalidated. An entry leaves the segment only
/// when the arena log wraps over it or its bucket evicts its slot.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_CACHE_SHAREDCACHE_H
#define LSRA_CACHE_SHAREDCACHE_H

#include "cache/CompileCache.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace lsra {
namespace cache {

struct SharedCacheConfig {
  /// Backing file (e.g. /dev/shm/lsra-l2.seg). Created and sized on first
  /// open; later opens attach to the existing geometry.
  std::string Path;
  /// Total segment budget (header + directory + value arena). Ignored when
  /// attaching to an existing segment — the creator's geometry wins.
  size_t MaxBytes = 256u << 20;
};

/// One L2 value: the allocated module text plus the cold run's statistics.
struct L2Entry {
  std::string Payload;
  AllocStats Stats{};
};

/// Point-in-time view. Hits/Misses/Fills/PublishRejected are this process's
/// lifetime totals; Bytes/Entries describe the shared segment itself.
struct L2Stats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Fills = 0;            ///< entries this process published
  uint64_t PublishRejected = 0;  ///< oversize (entry > arena/2)
  uint64_t Wraps = 0;            ///< arena cursor wrap-arounds
  size_t Bytes = 0;              ///< arena occupancy (monotone until wrap)
  size_t CapacityBytes = 0;      ///< arena size
  size_t Entries = 0;            ///< live directory slots (validated scan)
};

class SharedCache {
public:
  /// Open (creating and initialising if needed) the segment at C.Path.
  /// Returns nullptr with \p Err set when the file cannot be created or
  /// mapped, or carries an incompatible layout: wrong magic or version,
  /// or a stored geometry that differs from the one the file size implies.
  static std::unique_ptr<SharedCache> open(const SharedCacheConfig &C,
                                           std::string &Err);
  ~SharedCache();

  SharedCache(const SharedCache &) = delete;
  SharedCache &operator=(const SharedCache &) = delete;

  /// Seqlock-validated lock-free probe. True and \p Out filled on a clean
  /// hit; a torn, stale, or absent entry is false (and a slot that fails
  /// arena validation is opportunistically cleared).
  bool lookup(const CacheKey &K, L2Entry &Out);

  /// Write \p Payload and \p Stats under \p K (arena append + slot
  /// publish), on the calling thread, straight from the caller's buffer.
  /// False when the entry is too large for the arena (> arena/2: one value
  /// may not thrash the whole log).
  bool publish(const CacheKey &K, std::string_view Payload,
               const AllocStats &Stats);

  L2Stats stats() const;
  size_t maxBytes() const { return SegBytes; }
  const std::string &path() const { return FilePath; }

  /// Test hook: append a deliberately torn entry — the first
  /// \p PayloadBytesWritten payload bytes are written, the commit word is
  /// not — and publish a slot pointing at it, as if the writer died
  /// mid-publish with the slot already visible. Readers must miss.
  void debugPublishTorn(const CacheKey &K, const L2Entry &E,
                        size_t PayloadBytesWritten);

private:
  SharedCache() = default;

  struct SegHeader;
  struct SegSlot;

  bool mapSegment(const SharedCacheConfig &C, std::string &Err);
  bool readEntryAt(uint64_t Off, uint64_t Len, const CacheKey &K,
                   L2Entry &Out);
  uint64_t claimArena(size_t Need);
  bool writeEntry(const CacheKey &K, std::string_view Payload,
                  const AllocStats &Stats, uint64_t &OffOut, uint64_t &LenOut,
                  size_t TornPayloadBytes, bool Torn);
  void publishSlot(const CacheKey &K, uint64_t Off, uint64_t Len);

  SegHeader *Hdr = nullptr;
  SegSlot *Dir = nullptr;         ///< directory, Buckets x SlotsPerBucket
  unsigned char *Arena = nullptr; ///< value arena, ArenaCap bytes
  uint64_t Buckets = 0;
  uint64_t ArenaCap = 0;
  void *Map = nullptr;
  size_t SegBytes = 0;
  int Fd = -1;
  std::string FilePath;

  // Per-process counters (never in the segment).
  std::atomic<uint64_t> NHits{0}, NMisses{0}, NFills{0}, NPublishRejected{0};
};

} // namespace cache
} // namespace lsra

#endif // LSRA_CACHE_SHAREDCACHE_H
