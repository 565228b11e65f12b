//===- tests/cache_test.cpp - Compile-cache correctness tests -------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The compile cache is only sound if a hit is indistinguishable from a
// fresh compile. These tests pin that down: byte-identical allocated text
// and statistics across every workload × allocator, key sensitivity
// (semantic options and target changes miss, execution options hit, texts
// that differ by paired top-bit flips never share a key), the WordHash
// step's flipped-bit property, LRU eviction under a tiny budget, and a
// concurrent hit/miss storm (designed to run under LSRA_SANITIZE=thread).
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "cache/SharedCache.h"
#include "driver/Options.h"
#include "driver/Pipeline.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Counters.h"
#include "obs/Metrics.h"
#include "support/Hash.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lsra;

namespace {

std::string workloadText(const char *Name) {
  std::ostringstream OS;
  printModule(OS, *buildWorkload(Name));
  return OS.str();
}

constexpr AllocatorKind AllKinds[] = {
    AllocatorKind::SecondChanceBinpack, AllocatorKind::GraphColoring,
    AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan};

/// Every deterministic AllocStats field; timing (AllocSeconds/WallSeconds)
/// is machine noise and, on a hit, deliberately the *cold* run's value.
void expectSameStats(const AllocStats &A, const AllocStats &B,
                     const std::string &Ctx) {
  EXPECT_EQ(A.RegCandidates, B.RegCandidates) << Ctx;
  EXPECT_EQ(A.SpilledTemps, B.SpilledTemps) << Ctx;
  EXPECT_EQ(A.LifetimeSplits, B.LifetimeSplits) << Ctx;
  EXPECT_EQ(A.MovesCoalesced, B.MovesCoalesced) << Ctx;
  EXPECT_EQ(A.SplitEdges, B.SplitEdges) << Ctx;
  EXPECT_EQ(A.EvictLoads, B.EvictLoads) << Ctx;
  EXPECT_EQ(A.EvictStores, B.EvictStores) << Ctx;
  EXPECT_EQ(A.EvictMoves, B.EvictMoves) << Ctx;
  EXPECT_EQ(A.ResolveLoads, B.ResolveLoads) << Ctx;
  EXPECT_EQ(A.ResolveStores, B.ResolveStores) << Ctx;
  EXPECT_EQ(A.ResolveMoves, B.ResolveMoves) << Ctx;
  EXPECT_EQ(A.DataflowIterations, B.DataflowIterations) << Ctx;
  EXPECT_EQ(A.ColoringIterations, B.ColoringIterations) << Ctx;
  EXPECT_EQ(A.InterferenceEdges, B.InterferenceEdges) << Ctx;
}

} // namespace

// The acceptance criterion: for every workload and every allocator, the
// cache-off compile, the cache-cold compile, and the cache-warm (hit)
// compile all produce byte-identical allocated text and equal statistics.
TEST(CompileCache, ByteIdenticalAcrossWorkloadsAndAllocators) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (const WorkloadSpec &W : allWorkloads()) {
    std::string Text = workloadText(W.Name);
    for (AllocatorKind K : AllKinds) {
      std::string Ctx =
          std::string(W.Name) + "/" + allocatorName(K);

      TextCompileResult Off = compileTextModule(Text, TD, K);
      ASSERT_TRUE(Off.Ok) << Ctx << ": " << Off.Error;
      EXPECT_FALSE(Off.CacheHit) << Ctx;

      cache::CompileCache Cache;
      ExecOptions EO;
      EO.Cache = &Cache;
      TextCompileResult Cold = compileTextModule(Text, TD, K, {}, EO);
      ASSERT_TRUE(Cold.Ok) << Ctx << ": " << Cold.Error;
      EXPECT_FALSE(Cold.CacheHit) << Ctx;
      EXPECT_EQ(Cold.AllocatedText, Off.AllocatedText) << Ctx;
      expectSameStats(Cold.Stats, Off.Stats, Ctx);

      TextCompileResult Warm = compileTextModule(Text, TD, K, {}, EO);
      ASSERT_TRUE(Warm.Ok) << Ctx << ": " << Warm.Error;
      EXPECT_TRUE(Warm.CacheHit) << Ctx;
      EXPECT_EQ(Warm.AllocatedText, Off.AllocatedText) << Ctx;
      expectSameStats(Warm.Stats, Off.Stats, Ctx);

      cache::CacheStats CS = Cache.stats();
      EXPECT_EQ(CS.Hits, 1u) << Ctx;
      EXPECT_GE(CS.Insertions, 1u) << Ctx;
    }
  }
}

// Function-level entries (compileModule's fan-out) must hit when the same
// module is compiled again, and the result must match an uncached compile.
TEST(CompileCache, FunctionLevelHitsAcrossFreshModules) {
  TargetDesc TD = TargetDesc::alphaLike();
  std::string Text = workloadText("li"); // call-heavy: func-ref operands
  for (AllocatorKind K : AllKinds) {
    auto Baseline = parseModule(Text);
    ASSERT_TRUE(Baseline.ok());
    compileModule(*Baseline.M, TD, K);
    std::ostringstream B;
    printModule(B, *Baseline.M);

    cache::CompileCache Cache;
    ExecOptions EO;
    EO.Cache = &Cache;
    auto First = parseModule(Text);
    ASSERT_TRUE(First.ok());
    compileModule(*First.M, TD, K, {}, EO);
    std::ostringstream F;
    printModule(F, *First.M);
    EXPECT_EQ(F.str(), B.str()) << allocatorName(K);

    // A fresh parse of the same text: every function must be served from
    // the cache and the printed module must still be byte-identical.
    auto Second = parseModule(Text);
    ASSERT_TRUE(Second.ok());
    compileModule(*Second.M, TD, K, {}, EO);
    std::ostringstream S;
    printModule(S, *Second.M);
    EXPECT_EQ(S.str(), B.str()) << allocatorName(K);
    cache::CacheStats CS = Cache.stats();
    EXPECT_GE(CS.Hits, Second.M->numFunctions()) << allocatorName(K);
  }
}

// Function-level hits also fire under the parallel allocation path, where
// materialised bodies are deferred and swapped in after the join.
TEST(CompileCache, FunctionLevelHitsUnderParallelCompile) {
  TargetDesc TD = TargetDesc::alphaLike();
  std::string Text = workloadText("li");
  auto Baseline = parseModule(Text);
  ASSERT_TRUE(Baseline.ok());
  compileModule(*Baseline.M, TD, AllocatorKind::SecondChanceBinpack);
  std::ostringstream B;
  printModule(B, *Baseline.M);

  cache::CompileCache Cache;
  ExecOptions EO;
  EO.Cache = &Cache;
  EO.Threads = 4;
  auto First = parseModule(Text);
  ASSERT_TRUE(First.ok());
  compileModule(*First.M, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
  auto Second = parseModule(Text);
  ASSERT_TRUE(Second.ok());
  compileModule(*Second.M, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
  std::ostringstream S;
  printModule(S, *Second.M);
  EXPECT_EQ(S.str(), B.str());
  EXPECT_GE(Cache.stats().Hits, Second.M->numFunctions());
}

// The key must be exactly (text, semantic options, allocator, target):
// changing any semantic input misses; changing execution options hits.
TEST(CompileCache, FingerprintSensitivity) {
  TargetDesc TD = TargetDesc::alphaLike();
  std::string Text = workloadText("espresso");
  cache::CompileCache Cache;
  ExecOptions EO;
  EO.Cache = &Cache;

  TextCompileResult Cold = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;

  // Same everything → hit.
  EXPECT_TRUE(compileTextModule(Text, TD, AllocatorKind::SecondChanceBinpack,
                                {}, EO)
                  .CacheHit);

  // A semantic knob (spill cleanup changes the emitted code) → miss.
  AllocOptions Cleanup;
  Cleanup.SpillCleanup = true;
  EXPECT_FALSE(compileTextModule(Text, TD,
                                 AllocatorKind::SecondChanceBinpack, Cleanup,
                                 EO)
                   .CacheHit);

  // A different allocator → miss.
  EXPECT_FALSE(
      compileTextModule(Text, TD, AllocatorKind::GraphColoring, {}, EO)
          .CacheHit);

  // A different target (register limit) → miss.
  TargetDesc Tight = TD.withRegLimit(8, 8);
  EXPECT_FALSE(compileTextModule(Text, Tight,
                                 AllocatorKind::SecondChanceBinpack, {}, EO)
                   .CacheHit);

  // Execution options must NOT key the cache: thread count and the
  // verifier flag change how we compile, never what we produce.
  ExecOptions Threaded = EO;
  Threaded.Threads = 4;
  EXPECT_TRUE(compileTextModule(Text, TD, AllocatorKind::SecondChanceBinpack,
                                {}, Threaded)
                  .CacheHit);
  ExecOptions Verified = EO;
  Verified.VerifyAlloc = true;
  EXPECT_TRUE(compileTextModule(Text, TD, AllocatorKind::SecondChanceBinpack,
                                {}, Verified)
                  .CacheHit);
}

// AllocOptions::fingerprint() must separate exactly what operator==
// separates.
TEST(CompileCache, OptionsFingerprintMatchesEquality) {
  AllocOptions A, B;
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  B.SpillCleanup = true;
  EXPECT_TRUE(A != B);
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  B = A;
  B.Consistency = AllocOptions::ConsistencyMode::Conservative;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  B = A;
  B.EarlySecondChance = false;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  B = A;
  B.MoveCoalesce = false;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

// LRU eviction under a tiny budget: the shard sheds oldest entries, stays
// within budget, and never evicts below one resident entry.
TEST(CompileCache, EvictsLruUnderTinyBudget) {
  cache::CacheConfig CC;
  CC.MaxBytes = 4096;
  CC.Shards = 1;
  cache::CompileCache Cache(CC);

  auto KeyFor = [](unsigned I) {
    return cache::makeModuleKey("module " + std::to_string(I), 0,
                                AllocatorKind::SecondChanceBinpack, 0);
  };
  for (unsigned I = 0; I < 64; ++I) {
    auto E = std::make_shared<cache::CachedCompile>();
    E->AllocatedText = "entry " + std::to_string(I);
    E->Bytes = 1024;
    Cache.insert(KeyFor(I), std::move(E));
  }
  cache::CacheStats CS = Cache.stats();
  EXPECT_LE(CS.Bytes, CC.MaxBytes);
  EXPECT_GE(CS.Entries, 1u);
  EXPECT_GT(CS.Evictions, 0u);
  EXPECT_EQ(CS.Insertions, 64u);
  // The most recent entry survived; the oldest was evicted.
  EXPECT_NE(Cache.lookup(KeyFor(63)), nullptr);
  EXPECT_EQ(Cache.lookup(KeyFor(0)), nullptr);

  // An entry larger than the whole budget is refused outright.
  auto Big = std::make_shared<cache::CachedCompile>();
  Big->Bytes = CC.MaxBytes * 2;
  Cache.insert(KeyFor(100), std::move(Big));
  EXPECT_EQ(Cache.lookup(KeyFor(100)), nullptr);

  Cache.clear();
  CS = Cache.stats();
  EXPECT_EQ(CS.Entries, 0u);
  EXPECT_EQ(CS.Bytes, 0u);
}

// A lookup must refresh recency: touch the oldest entry, insert one more
// over budget, and the *second*-oldest is the one shed.
TEST(CompileCache, LookupRefreshesLruOrder) {
  cache::CacheConfig CC;
  CC.MaxBytes = 3072; // room for exactly three 1 KiB entries
  CC.Shards = 1;
  cache::CompileCache Cache(CC);
  auto KeyFor = [](unsigned I) {
    return cache::makeModuleKey("m" + std::to_string(I), 0,
                                AllocatorKind::SecondChanceBinpack, 0);
  };
  for (unsigned I = 0; I < 3; ++I) {
    auto E = std::make_shared<cache::CachedCompile>();
    E->Bytes = 1024;
    Cache.insert(KeyFor(I), std::move(E));
  }
  ASSERT_NE(Cache.lookup(KeyFor(0)), nullptr); // 0 is now most recent
  auto E = std::make_shared<cache::CachedCompile>();
  E->Bytes = 1024;
  Cache.insert(KeyFor(3), std::move(E));
  EXPECT_NE(Cache.lookup(KeyFor(0)), nullptr);
  EXPECT_EQ(Cache.lookup(KeyFor(1)), nullptr);
}

// RunAfter on a module-level hit: dynamic results come from re-parsing the
// cached allocated text, and must match the cold run exactly.
TEST(CompileCache, RunAfterOnHitMatchesColdRun) {
  TargetDesc TD = TargetDesc::alphaLike();
  std::string Text = workloadText("sort");
  cache::CompileCache Cache;
  ExecOptions EO;
  EO.Cache = &Cache;
  TextCompileResult Cold = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO,
      /*RunAfter=*/true);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_TRUE(Cold.Ran && Cold.Run.Ok) << Cold.Run.Error;
  TextCompileResult Warm = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO,
      /*RunAfter=*/true);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit);
  ASSERT_TRUE(Warm.Ran && Warm.Run.Ok) << Warm.Run.Error;
  EXPECT_EQ(Warm.Run.ReturnValue, Cold.Run.ReturnValue);
  EXPECT_EQ(Warm.Run.Output, Cold.Run.Output);
  EXPECT_EQ(Warm.Run.Stats.Total, Cold.Run.Stats.Total);
}

// Concurrent hit/miss storm: many threads compiling a mix of repeated and
// unique programs against one cache under a small budget (so eviction,
// insertion, and hits race). Every result must still be byte-identical to
// its uncached baseline. Run under LSRA_SANITIZE=thread in CI.
TEST(CompileCache, ConcurrentHitMissStorm) {
  TargetDesc TD = TargetDesc::alphaLike();
  const char *Repeated[] = {"wc", "sort", "eqntott", "compress"};
  std::vector<std::string> Texts;
  std::vector<std::string> Expected;
  for (const char *W : Repeated) {
    Texts.push_back(workloadText(W));
    TextCompileResult R = compileTextModule(
        Texts.back(), TD, AllocatorKind::SecondChanceBinpack);
    ASSERT_TRUE(R.Ok) << R.Error;
    Expected.push_back(R.AllocatedText);
  }

  cache::CacheConfig CC;
  CC.MaxBytes = 256u << 10; // small enough to force eviction traffic
  cache::CompileCache Cache(CC);
  std::atomic<unsigned> Mismatches{0};
  constexpr unsigned NumThreads = 8, PerThread = 24;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ExecOptions EO;
      EO.Cache = &Cache;
      for (unsigned I = 0; I < PerThread; ++I) {
        if (I % 3 == 2) {
          // Unique program: always a miss, churns the budget.
          std::ostringstream OS;
          printModule(OS, *buildRandomProgram(1000 + T * PerThread + I));
          TextCompileResult R = compileTextModule(
              OS.str(), TD, AllocatorKind::SecondChanceBinpack, {}, EO);
          if (!R.Ok)
            Mismatches.fetch_add(1);
          continue;
        }
        unsigned W = (T + I) % Texts.size();
        TextCompileResult R = compileTextModule(
            Texts[W], TD, AllocatorKind::SecondChanceBinpack, {}, EO);
        if (!R.Ok || R.AllocatedText != Expected[W])
          Mismatches.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  cache::CacheStats CS = Cache.stats();
  EXPECT_GT(CS.Hits, 0u);
  EXPECT_GT(CS.Misses, 0u);
  // Module-level lookups alone account for one probe per request; the
  // per-function probes of each miss add more on top.
  EXPECT_GE(CS.Hits + CS.Misses,
            static_cast<uint64_t>(NumThreads) * PerThread);
}

// Replacing an existing key must credit back exactly the replaced entry's
// bytes: after any sequence of same-key replacements, stats().Bytes is the
// sum of the *live* entries' sizes, not an accumulation of dead ones.
// (Regression: the replace path charged the new entry without fully
// crediting the old, so long-running servers recompiling changed modules
// under one key leaked budget until real entries were evicted to cover
// phantom bytes.)
TEST(CompileCache, InsertOverExistingKeyKeepsExactByteAccounting) {
  cache::CacheConfig CC;
  CC.MaxBytes = 1u << 20;
  CC.Shards = 1;
  cache::CompileCache Cache(CC);
  auto KeyFor = [](unsigned I) {
    std::string Text = "replace ";
    return cache::makeModuleKey(Text.append(std::to_string(I)), 0,
                                AllocatorKind::SecondChanceBinpack, 0);
  };
  auto EntryOf = [](size_t Bytes) {
    auto E = std::make_shared<cache::CachedCompile>();
    E->AllocatedText.assign(1, 'x');
    E->Bytes = Bytes;
    return E;
  };
  // Two stable keys plus one key replaced many times with varying sizes
  // (growing and shrinking — both directions must balance).
  Cache.insert(KeyFor(1), EntryOf(100));
  Cache.insert(KeyFor(2), EntryOf(200));
  size_t Live3 = 0;
  for (unsigned I = 0; I < 50; ++I) {
    Live3 = 300 + (I % 7) * 137 - (I % 3) * 29;
    Cache.insert(KeyFor(3), EntryOf(Live3));
  }
  cache::CacheStats CS = Cache.stats();
  EXPECT_EQ(CS.Entries, 3u);
  EXPECT_EQ(CS.Bytes, 100u + 200u + Live3);
  // No phantom bytes: the stable keys are still resident (replacement
  // churn never forced an eviction to cover leaked budget).
  EXPECT_EQ(CS.Evictions, 0u);
  EXPECT_NE(Cache.lookup(KeyFor(1)), nullptr);
  EXPECT_NE(Cache.lookup(KeyFor(2)), nullptr);

  // Replacement after a lookup (the entry is mid-LRU, not tail) balances
  // too.
  Cache.insert(KeyFor(1), EntryOf(1000));
  CS = Cache.stats();
  EXPECT_EQ(CS.Bytes, 1000u + 200u + Live3);
  EXPECT_EQ(CS.Entries, 3u);
}

// The obs gauges cache.bytes / cache.entries have one writer,
// refreshCacheGauges, called where a snapshot is rendered: inserts do not
// touch them, and a refresh after a concurrent insert/evict/replace storm
// across shards (or after clear()) agrees exactly with stats(). Run under
// LSRA_SANITIZE=thread in CI.
TEST(CompileCache, GaugesMatchStatsAfterConcurrentStorm) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  CR.enable();
  {
    cache::CacheConfig CC;
    CC.MaxBytes = 64u << 10; // small: every thread forces evictions
    CC.Shards = 4;
    cache::CompileCache Cache(CC);
    constexpr unsigned NumThreads = 8, PerThread = 400;
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; I < PerThread; ++I) {
          auto E = std::make_shared<cache::CachedCompile>();
          E->AllocatedText = "storm";
          E->Bytes = 512 + 64 * ((T + I) % 9);
          // Mix fresh keys (insert + evict) with a small hot set
          // (replacement), plus lookups to churn LRU order.
          unsigned KeyId = (I % 4 == 0) ? (T * PerThread + I) : (I % 16);
          auto K = cache::makeModuleKey(
              "gauge " + std::to_string(KeyId), 0,
              AllocatorKind::SecondChanceBinpack, 0);
          Cache.insert(K, std::move(E));
          if (I % 3 == 0)
            Cache.lookup(K);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(CR.gauge("cache.bytes").value(), 0); // not set by inserts
    cache::refreshCacheGauges(Cache);
    cache::CacheStats CS = Cache.stats();
    EXPECT_GT(CS.Bytes, 0u);
    EXPECT_EQ(CR.gauge("cache.bytes").value(),
              static_cast<int64_t>(CS.Bytes));
    EXPECT_EQ(CR.gauge("cache.entries").value(),
              static_cast<int64_t>(CS.Entries));
    EXPECT_GT(CS.Evictions, 0u); // the storm actually exercised eviction
    Cache.clear();
    cache::refreshCacheGauges(Cache);
    EXPECT_EQ(CR.gauge("cache.bytes").value(), 0);
    EXPECT_EQ(CR.gauge("cache.entries").value(), 0);
  }
  CR.disable();
  CR.reset();
}

// Tiering: an entry published by one CompileCache is promoted into a
// second cache's L1 by lookupL2Fill without being re-published, and the
// promotion pays the L1 accounting exactly once.
TEST(CompileCache, LookupL2FillPromotesWithoutRepublish) {
  std::string SegPath = "/tmp/lsra-l2-cachetest." +
                        std::to_string(::getpid()) + ".seg";
  ::unlink(SegPath.c_str());
  cache::SharedCacheConfig SC;
  SC.Path = SegPath;
  SC.MaxBytes = 4u << 20;
  std::string Err;
  auto L2 = cache::SharedCache::open(SC, Err);
  ASSERT_NE(L2, nullptr) << Err;

  auto K = cache::makeModuleKey("tiered module", 0,
                                AllocatorKind::SecondChanceBinpack, 0);
  {
    cache::CompileCache A;
    A.attachL2(L2.get());
    auto E = std::make_shared<cache::CachedCompile>();
    E->AllocatedText = "allocated text of the tiered module";
    E->Bytes = 4096;
    A.insert(K, std::move(E)); // publishes before it returns
  }
  ASSERT_EQ(L2->stats().Fills, 1u);

  cache::CompileCache B;
  B.attachL2(L2.get());
  EXPECT_EQ(B.lookup(K), nullptr); // L1 probe misses...
  auto Hit = B.lookupL2Fill(K);    // ...the L2 fill serves it
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->AllocatedText, "allocated text of the tiered module");
  // Promotion filled L1 (next probe hits) without re-publishing to L2.
  EXPECT_NE(B.lookup(K), nullptr);
  EXPECT_EQ(L2->stats().Fills, 1u);
  EXPECT_EQ(B.stats().Entries, 1u);
  EXPECT_GT(B.stats().Bytes, 0u);
  B.attachL2(nullptr);
  L2.reset();
  ::unlink(SegPath.c_str());
}

// The makeCompileCache helper honours --no-cache and --cache-mb.
TEST(CompileCache, MakeCompileCacheHonoursFlags) {
  CompileFlags F;
  std::string Err;
  ASSERT_TRUE(parseCompileFlag("--cache-mb=2", F, Err));
  EXPECT_TRUE(Err.empty());
  auto C = makeCompileCache(F);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->maxBytes(), 2u << 20);
  ASSERT_TRUE(parseCompileFlag("--no-cache", F, Err));
  EXPECT_EQ(makeCompileCache(F), nullptr);
  CompileFlags Zero;
  Zero.CacheMb = 0;
  EXPECT_EQ(makeCompileCache(Zero), nullptr);
}

// Word-wise FNV-1a let a top-bit flip pass through its multiply unchanged,
// so two texts that differ only in the top bit of byte 7 of two 8-byte
// words got the same 128-bit key: a module that fails to parse was
// answered with another module's allocation. Here the flips sit inside a
// call target's name, so the flipped text names an unknown function.
TEST(CompileCache, PairedTopBitFlipsNeverShareAKey) {
  const std::string Valid =
      "memsize 16\n"
      "\n"
      "func callee_with_a_long_enough_name (iparams=0 fparams=0 ret=int "
      "vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  movi %0, 7\n"
      "  ret %0\n"
      "\n"
      "func main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  call @callee_with_a_long_enough_name  (iargs=0 fargs=0)\n"
      "  cres %0\n"
      "  emit %0\n"
      "  ret %0\n";
  const size_t Name = Valid.find("@callee") + 1;
  const size_t P = Name + (15 - Name % 8) % 8; // byte 7 of a word
  ASSERT_LT(P + 8, Valid.find(' ', Name));
  std::string Broken = Valid;
  Broken[P] = static_cast<char>(Broken[P] ^ 0x80);
  Broken[P + 8] = static_cast<char>(Broken[P + 8] ^ 0x80);

  const TargetDesc TD = TargetDesc::alphaLike();
  const AllocatorKind K = AllocatorKind::SecondChanceBinpack;
  auto keyOf = [&](const std::string &Text) {
    return cache::makeModuleKey(Text, AllocOptions().fingerprint(), K,
                                TD.fingerprint());
  };
  EXPECT_FALSE(keyOf(Valid) == keyOf(Broken));

  TextCompileResult Uncached = compileTextModule(Broken, TD, K);
  ASSERT_FALSE(Uncached.Ok);
  cache::CompileCache Cache;
  ExecOptions EO;
  EO.Cache = &Cache;
  TextCompileResult Filled = compileTextModule(Valid, TD, K, {}, EO);
  ASSERT_TRUE(Filled.Ok) << Filled.Error;
  TextCompileResult Cached = compileTextModule(Broken, TD, K, {}, EO);
  EXPECT_FALSE(Cached.CacheHit);
  EXPECT_FALSE(Cached.Ok);
  EXPECT_EQ(Cached.Error, Uncached.Error);
}

// The hash's per-word step: for every input bit, flipping it leaves a
// state difference that depends on the values hashed (never one fixed
// difference), and a second flip of the same bit in the next word does
// not cancel the first.
TEST(WordHash, NoFlippedBitLeavesAFixedStateDifference) {
  std::mt19937_64 Rng(1998);
  for (unsigned Bit = 0; Bit < 64; ++Bit) {
    const uint64_t Flip = uint64_t(1) << Bit;
    std::set<uint64_t> HiDiffs, LoDiffs;
    for (int Trial = 0; Trial < 8; ++Trial) {
      const uint64_t Prefix = Rng(), W = Rng(), Next = Rng();
      WordHash A, B;
      A.word(Prefix).word(W);
      B.word(Prefix).word(W ^ Flip);
      HiDiffs.insert(A.hi() ^ B.hi());
      LoDiffs.insert(A.lo() ^ B.lo());
      A.word(Next);
      B.word(Next ^ Flip);
      EXPECT_FALSE(A.hi() == B.hi() && A.lo() == B.lo()) << Bit;
    }
    EXPECT_GT(HiDiffs.size(), 1u) << Bit;
    EXPECT_GT(LoDiffs.size(), 1u) << Bit;
  }
}

// bytes() hashes the length after the zero-padded tail, so a text and the
// same text with trailing zero bytes hash apart.
TEST(WordHash, TrailingZeroBytesChangeTheHash) {
  const char Text[16] = "module\0\0\0\0\0\0\0\0";
  std::set<std::pair<uint64_t, uint64_t>> Seen;
  for (size_t Len = 6; Len <= 16; ++Len) {
    WordHash H;
    H.bytes(Text, Len);
    Seen.insert({H.hi(), H.lo()});
  }
  EXPECT_EQ(Seen.size(), 11u);
}
