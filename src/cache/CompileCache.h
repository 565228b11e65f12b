//===- cache/CompileCache.h - Content-addressed compile cache --*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded, memory-bounded LRU cache of register-allocation
/// results, keyed by content: (canonical function/module text hash, options
/// fingerprint, allocator kind, target fingerprint). Register allocation is
/// deterministic for a fixed key — the §2 scan visits temporaries in a
/// fixed order, and nothing in ExecOptions may influence the output — so a
/// hit is byte-identical to a fresh compile, and serving streams dominated
/// by repeated modules/functions pay O(hash) instead of O(allocate).
///
/// Two key levels share one cache:
///  - module level (makeModuleKey): the raw request text of a whole module,
///    hit before even parsing (the server fast path);
///  - function level (makeFunctionKey): the canonical printed form of one
///    lowered function, so repeated functions hit across distinct modules.
///
/// Entries are immutable once inserted (shared_ptr<const CachedCompile>);
/// readers clone out of them without holding any shard lock. The key is
/// the only coherence rule: an entry is never stale, so nothing is ever
/// invalidated — entries leave by LRU eviction or clear() only.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_CACHE_COMPILECACHE_H
#define LSRA_CACHE_COMPILECACHE_H

#include "regalloc/Allocator.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace lsra {
namespace cache {

class SharedCache;

/// 128-bit content-addressed key: the two lanes of one WordHash pass
/// (support/Hash.h) over the level tag, the fingerprints and the text, so
/// an accidental collision needs both 64-bit lanes to collide at once.
struct CacheKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const CacheKey &R) const {
    return Hi == R.Hi && Lo == R.Lo;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey &K) const {
    return static_cast<size_t>(K.Hi ^ K.Lo); // both halves already mixed
  }
};

/// One cached compilation result. Module-level entries carry the allocated
/// module text; function-level entries carry an allocated function body
/// plus the name of every function it references (func-ref operands are
/// module-relative ids, so a cross-module hit must remap them by name).
struct CachedCompile {
  std::string AllocatedText;            ///< module level; empty otherwise
  std::unique_ptr<const Function> Fn;   ///< function level; null otherwise
  /// (func-ref id in Fn, callee name) pairs for cross-module remapping.
  std::vector<std::pair<unsigned, std::string>> Callees;
  AllocStats Stats;                     ///< the original (cold) run's stats
  size_t Bytes = 0;                     ///< charged against the budget
};

struct CacheConfig {
  size_t MaxBytes = 64u << 20; ///< total budget across all shards
  unsigned Shards = 8;         ///< lock shards (power of two recommended)
};

/// Point-in-time counters. Hits/Misses/Insertions/Evictions are lifetime
/// totals; Bytes/Entries are current occupancy.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  size_t Bytes = 0;
  size_t Entries = 0;
};

class CompileCache {
public:
  explicit CompileCache(CacheConfig C = {});
  ~CompileCache(); // defaulted where Shard is complete

  CompileCache(const CompileCache &) = delete;
  CompileCache &operator=(const CompileCache &) = delete;

  /// Find \p K, refreshing its LRU position. Counts a hit or a miss, and
  /// mirrors the count into the global obs registry ("cache.hits" /
  /// "cache.misses") when that is enabled.
  std::shared_ptr<const CachedCompile> lookup(const CacheKey &K);

  /// Insert \p E under \p K, evicting least-recently-used entries of the
  /// same shard until the shard budget holds. An entry larger than the
  /// whole shard budget is not admitted (it would only thrash). Inserting
  /// over an existing key replaces it. Module-level entries (AllocatedText
  /// set, no Fn) are also published to the attached L2 before this
  /// returns, so other processes warm up from this compile.
  void insert(const CacheKey &K, std::shared_ptr<const CachedCompile> E);

  /// L2 half of the tiered lookup: probe the attached shared cache and, on
  /// a hit, promote the entry into L1 (without re-publishing it) and
  /// return it. Null when no L2 is attached or the key is absent there.
  /// Callers probe L1 first (lookup) and fall back to this — split so the
  /// request trace can attribute the "l2-probe" phase separately.
  std::shared_ptr<const CachedCompile> lookupL2Fill(const CacheKey &K);

  /// Attach (or detach, with nullptr) the process's shared L2. Non-owning:
  /// the caller keeps \p NewL2 alive until this cache is destroyed or
  /// detached.
  void attachL2(SharedCache *NewL2) { L2 = NewL2; }
  SharedCache *l2() const { return L2; }

  CacheStats stats() const;
  void clear();

  size_t maxBytes() const { return Config.MaxBytes; }

private:
  struct Shard;

  Shard &shardFor(const CacheKey &K);
  void insertL1(const CacheKey &K, std::shared_ptr<const CachedCompile> E,
                bool PublishL2);

  CacheConfig Config;
  size_t ShardBudget;
  std::vector<std::unique_ptr<Shard>> Shards;
  SharedCache *L2 = nullptr;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<uint64_t> Evictions{0};
};

/// Set the occupancy gauges from stats(): cache.bytes and cache.entries,
/// and with an L2 attached cache.l2.bytes, cache.l2.entries and
/// cache.l2.capacity_bytes. The one writer of these gauges; call it where
/// a metrics snapshot is rendered. A no-op while the registry is off.
void refreshCacheGauges(const CompileCache &C);

/// Conservative size estimate of an allocated function for cache
/// accounting (blocks, instructions, operands, name table).
size_t estimateFunctionBytes(const Function &F);

/// Key for a whole-module compile of the raw request text \p IRText.
CacheKey makeModuleKey(const std::string &IRText, uint64_t OptionsFp,
                       AllocatorKind K, uint64_t TargetFp);

/// Key for one lowered function's canonical printed form \p CanonicalText.
/// Uses a distinct level tag so a module text can never alias a function
/// text.
CacheKey makeFunctionKey(const std::string &CanonicalText, uint64_t OptionsFp,
                         AllocatorKind K, uint64_t TargetFp);

} // namespace cache
} // namespace lsra

#endif // LSRA_CACHE_COMPILECACHE_H
