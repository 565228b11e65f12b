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
#include "support/Hash.h"

#include <algorithm>
#include <mutex>

using namespace lsra;
using namespace lsra::cache;

namespace {

CacheKey makeKey(uint64_t LevelTag, const std::string &Text,
                 uint64_t OptionsFp, AllocatorKind K, uint64_t TargetFp) {
  WordHash H(LevelTag);
  H.word(OptionsFp).word(static_cast<uint64_t>(K)).word(TargetFp);
  H.bytes(Text.data(), Text.size());
  return {H.hi(), H.lo()};
}

} // namespace

uint64_t AllocOptions::fingerprint() const {
  return WordHash(0x616f0001) // schema tag: "ao" v1
      .word(EarlySecondChance)
      .word(MoveCoalesce)
      .word(static_cast<uint64_t>(Consistency))
      .word(RunPeephole)
      .word(CalleeSaves)
      .word(SpillCleanup)
      .value();
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
  // It runs here, on the inserting thread, so the entry is in the segment
  // before the compile that produced it returns.
  if (PublishL2 && L2 && !E->AllocatedText.empty() && !E->Fn)
    L2->publish(K, E->AllocatedText, E->Stats);
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
      Dead.push_back(std::move(It->second->second));
      S.Lru.erase(It->second);
      S.Map.erase(It);
    }
    S.Bytes += E->Bytes;
    S.Lru.emplace_front(K, std::move(E));
    S.Map[K] = S.Lru.begin();
    while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
      auto &Victim = S.Lru.back();
      S.Bytes -= Victim.second->Bytes;
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
    S->Lru.clear();
    S->Map.clear();
    S->Bytes = 0;
  }
}

void lsra::cache::refreshCacheGauges(const CompileCache &C) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (!CR.enabled())
    return;
  CacheStats CS = C.stats();
  CR.gauge("cache.bytes").set(static_cast<int64_t>(CS.Bytes));
  CR.gauge("cache.entries").set(static_cast<int64_t>(CS.Entries));
  if (const SharedCache *L2 = C.l2()) {
    L2Stats LS = L2->stats();
    CR.gauge("cache.l2.bytes").set(static_cast<int64_t>(LS.Bytes));
    CR.gauge("cache.l2.entries").set(static_cast<int64_t>(LS.Entries));
    CR.gauge("cache.l2.capacity_bytes")
        .set(static_cast<int64_t>(LS.CapacityBytes));
  }
}
