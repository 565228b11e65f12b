//===- tests/sharedcache_test.cpp - Shared-memory L2 cache tests ----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The L2 tier's contract: a reader sees a complete entry or a clean miss,
// never a torn value or a crash — across instances, across processes,
// across a writer SIGKILLed mid-publish, and across a segment whose header,
// directory or arena bytes were overwritten behind the cache's back (the
// corruption cases write through a second raw mapping of the file). Plus
// the open-time layout check and the arena's wrap behaviour.
// A SharedCache starts no threads of its own (publishes run on the
// inserting thread), so no threads exist when the fork-based tests fork.
// Designed to run under LSRA_SANITIZE=thread and =address.
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "cache/SharedCache.h"
#include "driver/Options.h"
#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fcntl.h>
#include <random>
#include <sstream>
#include <string>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lsra;
using namespace lsra::cache;

namespace {

std::string uniqueSegPath(const char *Tag) {
  return "/tmp/lsra-l2-test-" + std::string(Tag) + "." +
         std::to_string(::getpid()) + ".seg";
}

/// RAII segment file: removed on scope exit so reruns start clean.
struct SegFile {
  std::string Path;
  explicit SegFile(const char *Tag) : Path(uniqueSegPath(Tag)) {
    ::unlink(Path.c_str());
  }
  ~SegFile() { ::unlink(Path.c_str()); }
};

std::unique_ptr<SharedCache> openSeg(const std::string &Path,
                                     size_t MaxBytes = 4u << 20) {
  SharedCacheConfig C;
  C.Path = Path;
  C.MaxBytes = MaxBytes;
  std::string Err;
  auto SC = SharedCache::open(C, Err);
  EXPECT_NE(SC, nullptr) << Err;
  return SC;
}

bool publishEntry(SharedCache &SC, const CacheKey &K, const L2Entry &E) {
  return SC.publish(K, E.Payload, E.Stats);
}

CacheKey keyFor(unsigned I) {
  return makeModuleKey("l2 module " + std::to_string(I), 0,
                       AllocatorKind::SecondChanceBinpack, 0);
}

L2Entry entryFor(unsigned I, size_t PayloadBytes = 256) {
  L2Entry E;
  E.Payload.reserve(PayloadBytes);
  std::string Stamp = "payload " + std::to_string(I) + ":";
  while (E.Payload.size() < PayloadBytes)
    E.Payload += Stamp;
  E.Payload.resize(PayloadBytes);
  E.Stats.SpilledTemps = I;
  E.Stats.RegCandidates = I * 3 + 1;
  return E;
}

// Segment words the corruption cases address directly. Header word
// indices and the first five words of a 64-byte directory slot; an arena
// entry's payload-size word is its word 3.
constexpr size_t HdrVersion = 1, HdrBucketCount = 3, HdrDirOffset = 5,
                 HdrArenaOffset = 6, HdrArenaBytes = 7, HdrCursor = 8;
constexpr size_t SlotBytesTotal = 64, SlotKeyHi = 1, SlotKeyLo = 2,
                 SlotOffset = 3, SlotBytes = 4, EntryPayloadBytes = 3;
/// Byte offset of the payload in an arena entry: six header words, then
/// the word-aligned stats blob.
constexpr size_t EntryPayloadOffset =
    6 * 8 + ((sizeof(AllocStats) + 7) & ~size_t(7));

/// A second, raw read-write mapping of a segment file: what a buggy or
/// hostile co-tenant of the segment can scribble on.
struct RawSeg {
  unsigned char *Base = nullptr;
  size_t Size = 0;

  explicit RawSeg(const std::string &Path) {
    int Fd = ::open(Path.c_str(), O_RDWR);
    struct stat St {};
    if (Fd >= 0 && ::fstat(Fd, &St) == 0 && St.st_size > 0) {
      void *M = ::mmap(nullptr, static_cast<size_t>(St.st_size),
                       PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
      if (M != MAP_FAILED) {
        Base = static_cast<unsigned char *>(M);
        Size = static_cast<size_t>(St.st_size);
      }
    }
    if (Fd >= 0)
      ::close(Fd);
  }
  ~RawSeg() {
    if (Base)
      ::munmap(Base, Size);
  }
  RawSeg(const RawSeg &) = delete;
  RawSeg &operator=(const RawSeg &) = delete;

  uint64_t &word(size_t ByteOff) {
    return *reinterpret_cast<uint64_t *>(Base + ByteOff);
  }
  uint64_t &hdr(size_t W) { return word(W * 8); }

  /// Byte offset of the live directory slot naming \p K; 0 when absent.
  size_t slotOf(const CacheKey &K) {
    size_t Dir = hdr(HdrDirOffset);
    size_t N = hdr(HdrBucketCount) * 4;
    for (size_t I = 0; I < N; ++I) {
      size_t S = Dir + I * SlotBytesTotal;
      if (word(S + SlotKeyHi * 8) == K.Hi &&
          word(S + SlotKeyLo * 8) == K.Lo && word(S + SlotBytes * 8) != 0)
        return S;
    }
    return 0;
  }

  /// Byte offset of the arena entry the slot at \p Slot names.
  size_t entryOf(size_t Slot) {
    return hdr(HdrArenaOffset) + word(Slot + SlotOffset * 8);
  }
};

/// open() without openSeg's non-null expectation, for the refusal cases.
std::unique_ptr<SharedCache> tryOpenSeg(const std::string &Path,
                                        std::string &Err) {
  SharedCacheConfig C;
  C.Path = Path;
  Err.clear();
  return SharedCache::open(C, Err);
}

std::string workloadText(const char *Name) {
  std::ostringstream OS;
  printModule(OS, *buildWorkload(Name));
  return OS.str();
}

} // namespace

// --- Single-instance basics -------------------------------------------------

TEST(SharedCache, PublishLookupRoundtrip) {
  SegFile Seg("roundtrip");
  auto SC = openSeg(Seg.Path);
  ASSERT_NE(SC, nullptr);

  L2Entry In = entryFor(7, 1000);
  ASSERT_TRUE(publishEntry(*SC, keyFor(7), In));
  L2Entry Out;
  ASSERT_TRUE(SC->lookup(keyFor(7), Out));
  EXPECT_EQ(Out.Payload, In.Payload);
  EXPECT_EQ(Out.Stats.SpilledTemps, In.Stats.SpilledTemps);
  EXPECT_EQ(Out.Stats.RegCandidates, In.Stats.RegCandidates);

  // A key never published is a clean miss.
  L2Entry Miss;
  EXPECT_FALSE(SC->lookup(keyFor(8), Miss));

  L2Stats St = SC->stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 1u);
  EXPECT_EQ(St.Fills, 1u);
  EXPECT_EQ(St.Entries, 1u);
  EXPECT_GT(St.Bytes, In.Payload.size());
  EXPECT_LE(St.Bytes, St.CapacityBytes);
}

TEST(SharedCache, SameKeyRepublishReplacesValue) {
  SegFile Seg("republish");
  auto SC = openSeg(Seg.Path);
  ASSERT_NE(SC, nullptr);
  ASSERT_TRUE(publishEntry(*SC, keyFor(1), entryFor(1)));
  L2Entry V2 = entryFor(1);
  V2.Payload = "the second value wins";
  ASSERT_TRUE(publishEntry(*SC, keyFor(1), V2));
  L2Entry Out;
  ASSERT_TRUE(SC->lookup(keyFor(1), Out));
  EXPECT_EQ(Out.Payload, V2.Payload);
  // Replacement reuses the slot: still exactly one directory entry.
  EXPECT_EQ(SC->stats().Entries, 1u);
}

TEST(SharedCache, OversizeEntryIsRejectedNotTorn) {
  SegFile Seg("oversize");
  auto SC = openSeg(Seg.Path, 1u << 20); // minimum geometry
  ASSERT_NE(SC, nullptr);
  L2Entry Huge = entryFor(1, SC->stats().CapacityBytes); // > arena/2
  EXPECT_FALSE(publishEntry(*SC, keyFor(1), Huge));
  L2Entry Out;
  EXPECT_FALSE(SC->lookup(keyFor(1), Out));
  EXPECT_EQ(SC->stats().PublishRejected, 1u);
  EXPECT_EQ(SC->stats().Entries, 0u);
}

// A second key landing in a bucket whose first slot holds the segment's
// very first entry (LastUse 0) takes one of the three empty slots; it must
// not evict the first entry while the bucket still has room.
TEST(SharedCache, BucketFillsEmptySlotsBeforeEvicting) {
  SegFile Seg("bucket");
  auto SC = openSeg(Seg.Path, 4u << 20);
  ASSERT_NE(SC, nullptr);
  RawSeg Raw(Seg.Path);
  ASSERT_NE(Raw.Base, nullptr);
  const uint64_t Mask = Raw.hdr(HdrBucketCount) - 1;
  unsigned Mate = 1;
  while ((CacheKeyHash()(keyFor(Mate)) & Mask) !=
         (CacheKeyHash()(keyFor(0)) & Mask))
    ++Mate;
  ASSERT_TRUE(publishEntry(*SC, keyFor(0), entryFor(0)));
  ASSERT_TRUE(publishEntry(*SC, keyFor(Mate), entryFor(Mate)));
  L2Entry Out;
  EXPECT_TRUE(SC->lookup(keyFor(0), Out));
  EXPECT_TRUE(SC->lookup(keyFor(Mate), Out));
  EXPECT_EQ(SC->stats().Entries, 2u);
}

// --- Crash consistency ------------------------------------------------------

// A slot pointing at an uncommitted entry (writer died after publishing
// the slot but before the commit word) must read as a clean miss, and the
// reader self-heals the slot so the directory recovers.
TEST(SharedCache, TornPublishIsCleanMiss) {
  SegFile Seg("torn");
  auto SC = openSeg(Seg.Path);
  ASSERT_NE(SC, nullptr);
  L2Entry E = entryFor(3, 2048);
  SC->debugPublishTorn(keyFor(3), E, /*PayloadBytesWritten=*/700);
  ASSERT_EQ(SC->stats().Entries, 1u); // slot is visible...
  L2Entry Out;
  EXPECT_FALSE(SC->lookup(keyFor(3), Out)); // ...but never a torn value
  // Self-heal: the failed probe emptied the slot.
  EXPECT_EQ(SC->stats().Entries, 0u);

  // A fresh instance attaching to the same file must also see a miss
  // (nothing process-local hides the tear).
  SC->debugPublishTorn(keyFor(4), E, /*PayloadBytesWritten=*/0);
  auto SC2 = openSeg(Seg.Path);
  ASSERT_NE(SC2, nullptr);
  EXPECT_FALSE(SC2->lookup(keyFor(4), Out));
}

// SIGKILL a writer process at a random point of a publish loop: every key
// the parent then probes is either a complete byte-exact entry or a clean
// miss. (The writer child creates its SharedCache after the fork, so no
// threads exist at fork time.)
TEST(SharedCache, SigkilledWriterNeverLeavesTornEntries) {
  SegFile Seg("sigkill");
  constexpr unsigned NumKeys = 64;
  // 64 MB → 1024 directory buckets, so 64 keys never overflow a bucket
  // (a 4-slot bucket with 5+ keys evicts, which would look like a miss
  // and hide what this test is after).
  constexpr size_t SegBytes = 64u << 20;
  {
    // Creator instance: build the segment before the child races in, so
    // the child's open() attaches instead of initialising.
    auto Boot = openSeg(Seg.Path, SegBytes);
    ASSERT_NE(Boot, nullptr);
  }
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Writer: publish forever; the parent kills us mid-stream.
    auto SC = openSeg(Seg.Path, SegBytes);
    if (!SC)
      ::_exit(2);
    for (unsigned Round = 0;; ++Round)
      for (unsigned I = 0; I < NumKeys; ++I)
        publishEntry(*SC, keyFor(I), entryFor(I, 512 + 8 * I));
  }
  // Let the writer publish for a moment, then kill it mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(Child, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL);

  auto Reader = openSeg(Seg.Path, SegBytes);
  ASSERT_NE(Reader, nullptr);
  unsigned Hits = 0;
  for (unsigned I = 0; I < NumKeys; ++I) {
    L2Entry Out;
    if (!Reader->lookup(keyFor(I), Out))
      continue; // clean miss: acceptable for the in-flight key
    L2Entry Want = entryFor(I, 512 + 8 * I);
    ASSERT_EQ(Out.Payload, Want.Payload) << "torn entry for key " << I;
    ASSERT_EQ(Out.Stats.SpilledTemps, Want.Stats.SpilledTemps);
    ++Hits;
  }
  // The writer ran for ~100 ms; all but (at most) the in-flight key must
  // have landed.
  EXPECT_GE(Hits, NumKeys - 1);
}

// Two processes, one segment: a module compiled (and published) by a child
// process is an L2 hit with byte-identical text in the parent — the
// cross-process warm-start story end to end, through the real compile
// pipeline and the L1 promotion path.
TEST(SharedCache, WarmAcrossProcessesByteIdentical) {
  SegFile Seg("xproc");
  const std::string Text = workloadText("espresso");
  TargetDesc TD = TargetDesc::alphaLike();

  // Offline reference (no cache anywhere).
  TextCompileResult Ref = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child: cold-compile with L1+L2 attached; the L1 insert publishes
    // before the compile returns, so the entry has landed by the time we
    // exit.
    auto L2 = openSeg(Seg.Path);
    if (!L2)
      ::_exit(2);
    CompileCache L1;
    L1.attachL2(L2.get());
    ExecOptions EO;
    EO.Cache = &L1;
    TextCompileResult R = compileTextModule(
        Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
    if (!R.Ok || R.CacheHit)
      ::_exit(3);
    if (L2->stats().Fills == 0)
      ::_exit(4);
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status));
  ASSERT_EQ(WEXITSTATUS(Status), 0);

  // Parent: a fresh process-local L1, same segment. The first compile must
  // be an L2 fill, not a fresh allocation, and byte-identical to offline.
  auto L2 = openSeg(Seg.Path);
  ASSERT_NE(L2, nullptr);
  CompileCache L1;
  L1.attachL2(L2.get());
  ExecOptions EO;
  EO.Cache = &L1;
  TextCompileResult Warm = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_TRUE(Warm.CacheL2);
  EXPECT_EQ(Warm.AllocatedText, Ref.AllocatedText);
  EXPECT_EQ(L2->stats().Hits, 1u);

  // The fill promoted into L1: a second compile stops at the L1 probe.
  TextCompileResult Hot = compileTextModule(
      Text, TD, AllocatorKind::SecondChanceBinpack, {}, EO);
  EXPECT_TRUE(Hot.CacheHit);
  EXPECT_FALSE(Hot.CacheL2);
  EXPECT_EQ(L2->stats().Hits, 1u); // unchanged: L1 answered
}

// --- Corrupted segments ---------------------------------------------------

// A slot whose (offset, bytes) pair was shifted by 2^63 each: their sum
// wraps back to the entry's true end, so a sum-based bound check passes
// and the commit word it reads is genuine, while the entry header would be
// read 2^63 bytes past the arena. Must be a clean miss, not a wild read.
TEST(SharedCache, WrappingSlotBoundsAreCleanMiss) {
  SegFile Seg("wrapslot");
  auto SC = openSeg(Seg.Path);
  ASSERT_NE(SC, nullptr);
  L2Entry Empty = entryFor(1, 0);
  ASSERT_TRUE(publishEntry(*SC, keyFor(1), Empty));
  ASSERT_TRUE(publishEntry(*SC, keyFor(2), entryFor(2)));

  RawSeg Raw(Seg.Path);
  ASSERT_NE(Raw.Base, nullptr);
  for (unsigned I : {1u, 2u}) {
    size_t S = Raw.slotOf(keyFor(I));
    ASSERT_NE(S, 0u);
    Raw.word(S + SlotOffset * 8) += 1ull << 63;
    Raw.word(S + SlotBytes * 8) += 1ull << 63;
    L2Entry Out;
    EXPECT_FALSE(SC->lookup(keyFor(I), Out)) << I;
  }
  // The rest of the segment is untouched and still serves.
  ASSERT_TRUE(publishEntry(*SC, keyFor(3), entryFor(3)));
  L2Entry Out;
  ASSERT_TRUE(SC->lookup(keyFor(3), Out));
  EXPECT_EQ(Out.Payload, entryFor(3).Payload);
}

// An entry whose payload-size word reads 2^64 - 1: rounding that up to a
// word wraps to 0, so the computed entry size matches the slot's. Must be
// a clean miss, not a 16 EiB allocation.
TEST(SharedCache, HugePayloadSizeWordIsCleanMiss) {
  SegFile Seg("hugepayload");
  auto SC = openSeg(Seg.Path);
  ASSERT_NE(SC, nullptr);
  ASSERT_TRUE(publishEntry(*SC, keyFor(1), entryFor(1, 0)));

  RawSeg Raw(Seg.Path);
  ASSERT_NE(Raw.Base, nullptr);
  size_t S = Raw.slotOf(keyFor(1));
  ASSERT_NE(S, 0u);
  Raw.word(Raw.entryOf(S) + EntryPayloadBytes * 8) = ~0ull;
  L2Entry Out;
  EXPECT_FALSE(SC->lookup(keyFor(1), Out));
}

// Seeded byte flips over a populated segment — the header's geometry words
// (after attach), the live directory slots and the written arena prefix —
// one at a time, each followed by a probe of every key: every probe is a
// clean miss or the byte-exact payload. Each flip is undone before the
// next, but self-healed slots stay cleared, so later probes see a mix.
// Each round first flips the top bit of byte 7 of two payload words of one
// entry, the pair a word-wise FNV-1a checksum cannot see: it must miss.
TEST(SharedCache, ByteFlipSweepReadsMissOrExact) {
  constexpr unsigned Rounds = 6, Keys = 16, FlipsPerRound = 64;
  std::mt19937_64 Rng(1998);
  auto payloadBytes = [](unsigned I) { return size_t(I) * 37; };
  unsigned Hits = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    SegFile Seg("flipsweep");
    auto SC = openSeg(Seg.Path, 1u << 20);
    ASSERT_NE(SC, nullptr);
    for (unsigned I = 0; I < Keys; ++I)
      ASSERT_TRUE(publishEntry(*SC, keyFor(I), entryFor(I, payloadBytes(I))));
    RawSeg Raw(Seg.Path);
    ASSERT_NE(Raw.Base, nullptr);
    {
      const unsigned I = 1 + Round; // payload of 37 bytes or more
      size_t S = Raw.slotOf(keyFor(I));
      ASSERT_NE(S, 0u);
      unsigned char *Payload = Raw.Base + Raw.entryOf(S) + EntryPayloadOffset;
      Payload[7] ^= 0x80;
      Payload[15] ^= 0x80;
      L2Entry Out;
      EXPECT_FALSE(SC->lookup(keyFor(I), Out)) << "round " << Round;
      Payload[7] ^= 0x80;
      Payload[15] ^= 0x80;
    }
    std::vector<size_t> SlotAt;
    for (unsigned I = 0; I < Keys; ++I)
      if (size_t S = Raw.slotOf(keyFor(I)))
        SlotAt.push_back(S);
    ASSERT_FALSE(SlotAt.empty());
    const size_t ArenaOff = Raw.hdr(HdrArenaOffset);
    const size_t ArenaUsed = Raw.hdr(HdrCursor);

    for (unsigned F = 0; F < FlipsPerRound; ++F) {
      size_t At = 0;
      switch (Rng() % 3) {
      case 0: // BucketCount, DirOffset, ArenaOffset, ArenaBytes
        At = HdrBucketCount * 8 +
             Rng() % ((HdrArenaBytes - HdrBucketCount + 1) * 8);
        break;
      case 1:
        At = SlotAt[Rng() % SlotAt.size()] + Rng() % SlotBytesTotal;
        break;
      default:
        At = ArenaOff + Rng() % ArenaUsed;
        break;
      }
      const unsigned char Mask = static_cast<unsigned char>(1 + Rng() % 255);
      Raw.Base[At] ^= Mask;
      for (unsigned I = 0; I < Keys; ++I) {
        L2Entry Out;
        if (!SC->lookup(keyFor(I), Out))
          continue;
        ASSERT_EQ(Out.Payload, entryFor(I, payloadBytes(I)).Payload)
            << "round " << Round << " flip " << F << " at byte " << At;
        ++Hits;
      }
      Raw.Base[At] ^= Mask;
    }
  }
  // Most flips land away from any one key: the sweep must still be
  // serving, or it proved nothing about byte-exact hits.
  EXPECT_GT(Hits, 0u);
}

// An attacher recomputes the geometry from the file size and refuses a
// header that disagrees, with the typed "incompatible layout" error.
TEST(SharedCache, HeaderGeometryMismatchIsIncompatibleLayout) {
  SegFile Seg("geometry");
  {
    auto SC = openSeg(Seg.Path);
    ASSERT_NE(SC, nullptr);
  }
  for (size_t W : {HdrBucketCount, HdrDirOffset, HdrArenaOffset,
                   HdrArenaBytes}) {
    RawSeg Raw(Seg.Path);
    ASSERT_NE(Raw.Base, nullptr);
    const uint64_t Saved = Raw.hdr(W);
    Raw.hdr(W) ^= 0x1000;
    std::string Err;
    EXPECT_EQ(tryOpenSeg(Seg.Path, Err), nullptr) << W;
    EXPECT_NE(Err.find("incompatible layout"), std::string::npos)
        << W << ": " << Err;
    Raw.hdr(W) = Saved;
    EXPECT_NE(tryOpenSeg(Seg.Path, Err), nullptr) << Err;
  }
}

// A segment file written by the version-2 layout (word-wise FNV-1a keys,
// byte-wise FNV-1a payload checksums) is refused, never misread.
TEST(SharedCache, VersionTwoSegmentIsIncompatibleLayout) {
  SegFile Seg("v2");
  {
    auto SC = openSeg(Seg.Path);
    ASSERT_NE(SC, nullptr);
    ASSERT_TRUE(publishEntry(*SC, keyFor(1), entryFor(1)));
  }
  {
    RawSeg Raw(Seg.Path);
    ASSERT_NE(Raw.Base, nullptr);
    Raw.hdr(HdrVersion) = 2;
  }
  std::string Err;
  EXPECT_EQ(tryOpenSeg(Seg.Path, Err), nullptr);
  EXPECT_NE(Err.find("incompatible layout"), std::string::npos) << Err;
}

// --- Arena wrap and occupancy -----------------------------------------------

// Publishing far more bytes than the arena holds wraps the log; occupancy
// stays within capacity, recent entries stay readable, and wrapped-over
// entries read as clean misses (never torn values).
TEST(SharedCache, ArenaWrapKeepsOccupancyBoundedAndReadsClean) {
  SegFile Seg("wrap");
  auto SC = openSeg(Seg.Path, 1u << 20);
  ASSERT_NE(SC, nullptr);
  size_t Cap = SC->stats().CapacityBytes;
  size_t Payload = 32u << 10;
  unsigned N = static_cast<unsigned>((Cap / Payload) * 3 + 8);
  for (unsigned I = 0; I < N; ++I)
    ASSERT_TRUE(publishEntry(*SC, keyFor(I), entryFor(I, Payload)));
  L2Stats St = SC->stats();
  EXPECT_GT(St.Wraps, 0u);
  EXPECT_LE(St.Bytes, St.CapacityBytes);

  // The most recent entry is always intact.
  L2Entry Out;
  ASSERT_TRUE(SC->lookup(keyFor(N - 1), Out));
  EXPECT_EQ(Out.Payload, entryFor(N - 1, Payload).Payload);
  // Early entries were wrapped over: every probe is a hit with the exact
  // payload or a clean miss.
  for (unsigned I = 0; I < N; I += 7) {
    L2Entry P;
    if (SC->lookup(keyFor(I), P)) {
      EXPECT_EQ(P.Payload, entryFor(I, Payload).Payload) << I;
    }
  }
}

// --- Concurrency (TSan target) ----------------------------------------------

// Concurrent publishers and readers on one instance, two instances on the
// same mapping: the seqlock + commit/checksum protocol must hold under
// contention. Run under LSRA_SANITIZE=thread in CI.
TEST(SharedCache, ConcurrentPublishLookupStorm) {
  SegFile Seg("storm");
  auto A = openSeg(Seg.Path, 2u << 20);
  auto B = openSeg(Seg.Path, 2u << 20);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  constexpr unsigned KeySpace = 32, Writers = 3, Readers = 3, Iters = 200;
  std::atomic<unsigned> Corrupt{0};
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Writers; ++W)
    Threads.emplace_back([&, W] {
      SharedCache *SC = (W % 2) ? A.get() : B.get();
      for (unsigned I = 0; I < Iters; ++I) {
        unsigned K = (W * 31 + I) % KeySpace;
        publishEntry(*SC, keyFor(K), entryFor(K, 512 + 32 * (K % 8)));
      }
    });
  for (unsigned R = 0; R < Readers; ++R)
    Threads.emplace_back([&, R] {
      SharedCache *SC = (R % 2) ? B.get() : A.get();
      for (unsigned I = 0; I < Iters; ++I) {
        unsigned K = (R * 17 + I) % KeySpace;
        L2Entry Out;
        if (!SC->lookup(keyFor(K), Out))
          continue;
        if (Out.Payload != entryFor(K, 512 + 32 * (K % 8)).Payload)
          Corrupt.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Corrupt.load(), 0u);
  L2Stats St = A->stats();
  EXPECT_LE(St.Bytes, St.CapacityBytes);
  EXPECT_LE(St.Entries, static_cast<size_t>(KeySpace));
}

// --- Wiring -----------------------------------------------------------------

// makeSharedCache honours the flag surface: off by default, off under
// --no-cache, on with a path, and --l2-mb sizes the segment.
TEST(SharedCache, MakeSharedCacheHonoursFlags) {
  SegFile Seg("flags");
  CompileFlags F;
  std::string Err;
  EXPECT_EQ(makeSharedCache(F, Err), nullptr);
  EXPECT_TRUE(Err.empty());

  ASSERT_TRUE(parseCompileFlag("--l2-path=" + Seg.Path, F, Err));
  ASSERT_TRUE(parseCompileFlag("--l2-mb=4", F, Err));
  auto SC = makeSharedCache(F, Err);
  ASSERT_NE(SC, nullptr) << Err;
  EXPECT_EQ(SC->path(), Seg.Path);
  SC.reset();

  CompileFlags NoCache;
  NoCache.L2Path = Seg.Path;
  NoCache.NoCache = true;
  EXPECT_EQ(makeSharedCache(NoCache, Err), nullptr);
  EXPECT_TRUE(Err.empty());
}

// Attaching to an existing segment keeps the creator's geometry and the
// published contents (same-process "restart": warm across cache lives).
TEST(SharedCache, ReattachSeesExistingEntries) {
  SegFile Seg("reattach");
  {
    auto SC = openSeg(Seg.Path, 8u << 20);
    ASSERT_NE(SC, nullptr);
    ASSERT_TRUE(publishEntry(*SC, keyFor(11), entryFor(11, 4096)));
  }
  // New instance, different (ignored) budget request.
  auto SC2 = openSeg(Seg.Path, 1u << 20);
  ASSERT_NE(SC2, nullptr);
  L2Entry Out;
  ASSERT_TRUE(SC2->lookup(keyFor(11), Out));
  EXPECT_EQ(Out.Payload, entryFor(11, 4096).Payload);
}
