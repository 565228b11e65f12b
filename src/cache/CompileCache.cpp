//===- cache/CompileCache.cpp ---------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"

#include "cache/SharedCache.h"
#include "ir/Function.h"
#include "obs/Counters.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace lsra;
using namespace lsra::cache;

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t FnvPrime = 0x100000001b3ull;

uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t fnv1aWord(uint64_t H, uint64_t V) {
  return fnv1a(H, &V, sizeof(V));
}

// FNV-1a folded over 64-bit words (memcpy for alignment), byte-wise tail.
// A warm module-level hit costs little more than hashing the request
// text, so the per-byte multiply chain of plain FNV-1a would dominate the
// hit latency on module-sized inputs. Values differ from byte-wise FNV,
// which is fine: keys never leave the in-memory cache.
uint64_t fnv1aBulk(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (; Len >= 8; P += 8, Len -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    H ^= W;
    H *= FnvPrime;
  }
  return fnv1a(H, P, Len);
}

CacheKey makeKey(uint64_t LevelTag, const std::string &Text,
                 uint64_t OptionsFp, AllocatorKind K, uint64_t TargetFp) {
  uint64_t Meta[4] = {LevelTag, OptionsFp, static_cast<uint64_t>(K),
                      TargetFp};
  // Two FNV streams differing in their initial offset; the second also
  // reverses the meta/text mixing order so the halves do not collapse to
  // one hash of the same byte sequence.
  uint64_t Hi = fnv1a(FnvOffset, Meta, sizeof(Meta));
  Hi = fnv1aBulk(Hi, Text.data(), Text.size());
  uint64_t Lo = fnv1aBulk(FnvOffset ^ 0x5bd1e9955bd1e995ull, Text.data(),
                          Text.size());
  Lo = fnv1a(Lo, Meta, sizeof(Meta));
  Lo = fnv1aWord(Lo, Text.size());
  return {Hi, Lo};
}

} // namespace

uint64_t AllocOptions::fingerprint() const {
  uint64_t H = FnvOffset;
  H = fnv1aWord(H, 0x616f0001); // schema tag: "ao" v1
  H = fnv1aWord(H, EarlySecondChance);
  H = fnv1aWord(H, MoveCoalesce);
  H = fnv1aWord(H, static_cast<uint64_t>(Consistency));
  H = fnv1aWord(H, RunPeephole);
  H = fnv1aWord(H, CalleeSaves);
  H = fnv1aWord(H, SpillCleanup);
  return H;
}

CacheKey lsra::cache::makeModuleKey(const std::string &IRText,
                                    uint64_t OptionsFp, AllocatorKind K,
                                    uint64_t TargetFp) {
  return makeKey(0x6d6f6401, IRText, OptionsFp, K, TargetFp); // "mod" v1
}

CacheKey lsra::cache::makeFunctionKey(const std::string &CanonicalText,
                                      uint64_t OptionsFp, AllocatorKind K,
                                      uint64_t TargetFp) {
  return makeKey(0x666e0001, CanonicalText, OptionsFp, K, TargetFp); // "fn" v1
}

size_t lsra::cache::estimateFunctionBytes(const Function &F) {
  size_t Bytes = sizeof(Function) + F.name().size();
  for (const Block &B : F.blocks()) {
    Bytes += sizeof(Block) + B.name().size();
    Bytes += B.instrs().size() * sizeof(Instr);
  }
  return Bytes;
}

struct CompileCache::Shard {
  std::mutex Mu;
  /// MRU at the front. The map points into the list.
  std::list<std::pair<CacheKey, std::shared_ptr<const CachedCompile>>> Lru;
  std::unordered_map<CacheKey, decltype(Lru)::iterator, CacheKeyHash> Map;
  size_t Bytes = 0;
};

CompileCache::CompileCache(CacheConfig C) : Config(C) {
  Config.Shards = std::max(1u, Config.Shards);
  ShardBudget = std::max<size_t>(1, Config.MaxBytes / Config.Shards);
  Shards.reserve(Config.Shards);
  for (unsigned I = 0; I < Config.Shards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

CompileCache::~CompileCache() = default;

CompileCache::Shard &CompileCache::shardFor(const CacheKey &K) {
  return *Shards[CacheKeyHash()(K) % Shards.size()];
}

void CompileCache::publishGauges() const {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (!CR.enabled())
    return;
  // TotBytes/TotEntries are mutated inside the shard critical sections, so
  // after any mutation completes the atomics already reflect it. The mutex
  // serialises the read-and-set pair: without it two publishers could each
  // read a fresh total yet set the gauges in the opposite order, leaving a
  // stale value visible at quiescence (the bug the concurrent
  // GaugesMatchStatsUnderStorm test pins).
  std::lock_guard<std::mutex> L(GaugeMu);
  CR.gauge("cache.bytes")
      .set(TotBytes.load(std::memory_order_acquire));
  CR.gauge("cache.entries")
      .set(TotEntries.load(std::memory_order_acquire));
}

std::shared_ptr<const CachedCompile>
CompileCache::lookup(const CacheKey &K) {
  Shard &S = shardFor(K);
  std::shared_ptr<const CachedCompile> E;
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
      E = It->second->second;
    }
  }
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (E) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    if (CR.enabled())
      CR.counter("cache.hits").add(1);
  } else {
    Misses.fetch_add(1, std::memory_order_relaxed);
    if (CR.enabled())
      CR.counter("cache.misses").add(1);
  }
  return E;
}

void CompileCache::insert(const CacheKey &K,
                          std::shared_ptr<const CachedCompile> E) {
  insertL1(K, std::move(E), /*PublishL2=*/true);
}

void CompileCache::insertL1(const CacheKey &K,
                            std::shared_ptr<const CachedCompile> E,
                            bool PublishL2) {
  if (!E)
    return;
  // L2 publication is independent of L1 admission: an entry too large for
  // a shard can still warm other processes (the arena budget is its own).
  if (PublishL2 && L2 && !E->AllocatedText.empty() && !E->Fn) {
    L2Entry P;
    P.Payload = E->AllocatedText;
    P.Stats = E->Stats;
    L2->publishAsync(K, std::move(P));
  }
  if (E->Bytes > ShardBudget)
    return; // would evict the whole shard for one entry
  Shard &S = shardFor(K);
  unsigned Evicted = 0;
  // Entries removed under the lock but destroyed outside it.
  std::vector<std::shared_ptr<const CachedCompile>> Dead;
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Map.find(K);
    if (It != S.Map.end()) {
      // Same-key replacement: credit the old entry back in full before
      // charging the new one, so Bytes stays the sum of live entries.
      S.Bytes -= It->second->second->Bytes;
      TotBytes.fetch_sub(
          static_cast<int64_t>(It->second->second->Bytes),
          std::memory_order_acq_rel);
      TotEntries.fetch_sub(1, std::memory_order_acq_rel);
      Dead.push_back(std::move(It->second->second));
      S.Lru.erase(It->second);
      S.Map.erase(It);
    }
    S.Bytes += E->Bytes;
    TotBytes.fetch_add(static_cast<int64_t>(E->Bytes),
                       std::memory_order_acq_rel);
    TotEntries.fetch_add(1, std::memory_order_acq_rel);
    S.Lru.emplace_front(K, std::move(E));
    S.Map[K] = S.Lru.begin();
    while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
      auto &Victim = S.Lru.back();
      S.Bytes -= Victim.second->Bytes;
      TotBytes.fetch_sub(static_cast<int64_t>(Victim.second->Bytes),
                         std::memory_order_acq_rel);
      TotEntries.fetch_sub(1, std::memory_order_acq_rel);
      Dead.push_back(std::move(Victim.second));
      S.Map.erase(Victim.first);
      S.Lru.pop_back();
      ++Evicted;
    }
  }
  Insertions.fetch_add(1, std::memory_order_relaxed);
  if (Evicted)
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled()) {
    CR.counter("cache.insertions").add(1);
    if (Evicted)
      CR.counter("cache.evictions").add(Evicted);
  }
  publishGauges();
}

std::shared_ptr<const CachedCompile>
CompileCache::lookupL2Fill(const CacheKey &K) {
  if (!L2)
    return nullptr;
  L2Entry Found;
  if (!L2->lookup(K, Found))
    return nullptr;
  auto E = std::make_shared<CachedCompile>();
  E->AllocatedText = std::move(Found.Payload);
  E->Stats = Found.Stats;
  E->Bytes = E->AllocatedText.size() + sizeof(CachedCompile);
  // Promote into L1 without echoing back to L2 — the entry came from
  // there, and a re-publish would churn the arena log for nothing.
  insertL1(K, E, /*PublishL2=*/false);
  return E;
}

CacheStats CompileCache::stats() const {
  CacheStats St;
  St.Hits = Hits.load(std::memory_order_relaxed);
  St.Misses = Misses.load(std::memory_order_relaxed);
  St.Insertions = Insertions.load(std::memory_order_relaxed);
  St.Evictions = Evictions.load(std::memory_order_relaxed);
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    St.Bytes += S->Bytes;
    St.Entries += S->Map.size();
  }
  return St;
}

void CompileCache::clear() {
  for (const auto &S : Shards) {
    std::vector<std::shared_ptr<const CachedCompile>> Dead;
    std::lock_guard<std::mutex> L(S->Mu);
    for (auto &P : S->Lru)
      Dead.push_back(std::move(P.second));
    TotBytes.fetch_sub(static_cast<int64_t>(S->Bytes),
                       std::memory_order_acq_rel);
    TotEntries.fetch_sub(static_cast<int64_t>(S->Map.size()),
                         std::memory_order_acq_rel);
    S->Lru.clear();
    S->Map.clear();
    S->Bytes = 0;
  }
  // clear() previously left the occupancy gauges at their pre-clear
  // values; refresh them like every other mutation.
  publishGauges();
}
