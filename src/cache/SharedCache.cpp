//===- cache/SharedCache.cpp - Shared-memory L2 compile cache ------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes (the header holds the protocol overview):
//
//  - Every word that lives in the segment is either a std::atomic<uint64_t>
//    struct member (header, directory slots) or is accessed through
//    std::atomic_ref<uint64_t> (arena entry words). Plain loads/stores into
//    MAP_SHARED memory would be a data race the moment two threads of one
//    process touch the same mapping, and TSan rightly flags it.
//
//  - Arena entries are self-validating so the directory never needs to be
//    trusted: [magic, key, sizes, checksum, stats, payload, commit]. The
//    checksum is the project's WordHash over the stats and payload bytes.
//    The commit word is stored with release ordering after everything
//    else and loaded with acquire first, so an entry that passes
//    commit+checksum was fully written by some writer and not yet
//    overwritten by a wrap.
//
//  - Nothing read from the segment is trusted as a size or an offset. The
//    geometry is checked against the file size once, at open, and kept in
//    this process; a slot's (offset, bytes) pair and an entry's payload
//    size are bounds-checked without overflow before anything is read
//    through them, so a corrupted slot or entry is a miss, not a crash.
//
//  - The segment is initialised under an flock so a second process that
//    races open() either waits for a fully-built header or attaches to one;
//    the header magic is stored last (release) as a belt-and-braces marker
//    for readers that attach without the lock (e.g. a debugger).
//
//===----------------------------------------------------------------------===//

#include "cache/SharedCache.h"

#include "obs/Counters.h"
#include "support/Hash.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace lsra {
namespace cache {

namespace {

constexpr uint64_t SegMagic = 0x4c53524132ull;   // "LSRA2"
constexpr uint64_t SegVersion = 3; // 3: WordHash keys and checksums
constexpr uint64_t EntryMagic = 0x4c32454e545259ull; // "L2ENTRY"
constexpr uint64_t EntryCommit = 0x434f4d4d495421ull; // "COMMIT!"

constexpr unsigned SlotsPerBucketN = 4;

// A writer that dies holding a slot's seqlock odd leaves it unusable; any
// later writer that finds the slot odd and untouched for this many ticks
// forces it back to even and recycles it.
constexpr uint64_t StaleSlotTicks = 1u << 16;

uint64_t entryChecksum(const AllocStats &Stats, std::string_view Payload) {
  return WordHash(EntryMagic)
      .bytes(&Stats, sizeof(Stats))
      .bytes(Payload.data(), Payload.size())
      .value();
}

inline size_t align8(size_t N) { return (N + 7) & ~size_t(7); }

inline size_t alignPage(size_t N) { return (N + 4095) & ~size_t(4095); }

// Word-granular copies in and out of the arena. atomic_ref keeps TSan (and
// the compiler) honest about the sharing; relaxed is enough because the
// commit word carries the release/acquire edge.
void copyWordsToShared(unsigned char *Dst, const void *Src, size_t Bytes) {
  size_t Words = align8(Bytes) / 8;
  uint64_t Tmp[64];
  const unsigned char *S = static_cast<const unsigned char *>(Src);
  size_t Done = 0;
  while (Done < Words) {
    size_t Chunk = std::min<size_t>(Words - Done, 64);
    std::memset(Tmp, 0, Chunk * 8);
    size_t Take = std::min(Bytes - Done * 8, Chunk * 8);
    std::memcpy(Tmp, S + Done * 8, Take);
    for (size_t I = 0; I < Chunk; ++I) {
      std::atomic_ref<uint64_t> W(
          *reinterpret_cast<uint64_t *>(Dst + (Done + I) * 8));
      W.store(Tmp[I], std::memory_order_relaxed);
    }
    Done += Chunk;
  }
}

void copyWordsFromShared(void *Dst, const unsigned char *Src, size_t Bytes) {
  size_t Words = align8(Bytes) / 8;
  uint64_t Tmp[64];
  unsigned char *D = static_cast<unsigned char *>(Dst);
  size_t Done = 0;
  while (Done < Words) {
    size_t Chunk = std::min<size_t>(Words - Done, 64);
    for (size_t I = 0; I < Chunk; ++I) {
      // atomic_ref<const T> is C++26; cast away const for the load only.
      std::atomic_ref<uint64_t> W(*const_cast<uint64_t *>(
          reinterpret_cast<const uint64_t *>(Src + (Done + I) * 8)));
      Tmp[I] = W.load(std::memory_order_relaxed);
    }
    size_t Take = std::min(Bytes - Done * 8, Chunk * 8);
    std::memcpy(D + Done * 8, Tmp, Take);
    Done += Chunk;
  }
}

void bumpObs(const char *Name, uint64_t N = 1) {
  auto &CR = obs::CounterRegistry::global();
  if (CR.enabled())
    CR.counter(Name).add(N);
}

} // namespace

//===----------------------------------------------------------------------===//
// On-segment structures
//===----------------------------------------------------------------------===//

struct SharedCache::SegHeader {
  std::atomic<uint64_t> Magic;
  std::atomic<uint64_t> Version;
  std::atomic<uint64_t> SegBytes;
  std::atomic<uint64_t> BucketCount;
  std::atomic<uint64_t> SlotsPerBucket;
  std::atomic<uint64_t> DirOffset;
  std::atomic<uint64_t> ArenaOffset;
  std::atomic<uint64_t> ArenaBytes;
  std::atomic<uint64_t> Cursor;    ///< next free arena offset (log head)
  std::atomic<uint64_t> Wraps;     ///< times the cursor wrapped to 0
  std::atomic<uint64_t> Tick;      ///< LRU/staleness clock
};

/// One directory slot: a seqlock (odd = mid-write) naming an arena region.
/// 64 bytes, one cache line per slot.
struct SharedCache::SegSlot {
  std::atomic<uint64_t> Seq;
  std::atomic<uint64_t> KeyHi;
  std::atomic<uint64_t> KeyLo;
  std::atomic<uint64_t> Offset;
  std::atomic<uint64_t> Bytes;   ///< whole-entry bytes; 0 = empty slot
  std::atomic<uint64_t> LastUse;
  uint64_t Pad[2]; ///< never read or written
};

static_assert(std::is_trivially_copyable_v<AllocStats>,
              "AllocStats is memcpy'd into the shared arena");

// Arena entry word layout (offsets in 8-byte words):
//   0 magic  1 keyHi  2 keyLo  3 payloadBytes  4 checksum  5 statsBytes
//   [stats blob][payload]  last: commit
namespace {
constexpr size_t EntryHeaderWords = 6;

size_t entryBytesFor(size_t PayloadBytes) {
  return EntryHeaderWords * 8 + align8(sizeof(AllocStats)) +
         align8(PayloadBytes) + 8;
}

/// Where the directory and the arena sit in a segment of a given size. The
/// creator lays a segment out with this, and every attacher recomputes it
/// from the file size and requires the stored header to agree.
struct SegGeometry {
  uint64_t BucketCount = 0;
  uint64_t DirOffset = 0;
  uint64_t ArenaOffset = 0;
  uint64_t ArenaBytes = 0;
};

/// False when \p MapBytes cannot hold a header, a directory and a 64 KiB
/// arena.
bool segGeometryFor(size_t MapBytes, size_t HeaderStructBytes,
                    size_t SlotBytes, SegGeometry &G) {
  size_t HeaderBytes = alignPage(HeaderStructBytes);
  size_t Buckets = MapBytes / (64u << 10);
  size_t B = 64;
  while (B < Buckets && B < (1u << 16))
    B <<= 1;
  size_t ArenaOff =
      alignPage(HeaderBytes + B * SlotsPerBucketN * SlotBytes);
  if (ArenaOff + (64u << 10) > MapBytes)
    return false;
  G = {B, HeaderBytes, ArenaOff, MapBytes - ArenaOff};
  return true;
}
} // namespace

//===----------------------------------------------------------------------===//
// Open / map / teardown
//===----------------------------------------------------------------------===//

std::unique_ptr<SharedCache> SharedCache::open(const SharedCacheConfig &C,
                                               std::string &Err) {
  if (C.Path.empty()) {
    Err = "shared cache: empty path";
    return nullptr;
  }
  std::unique_ptr<SharedCache> SC(new SharedCache());
  if (!SC->mapSegment(C, Err))
    return nullptr;
  return SC;
}

bool SharedCache::mapSegment(const SharedCacheConfig &C, std::string &Err) {
  static_assert(sizeof(SegSlot) == 64, "slot must stay 64B");
  Fd = ::open(C.Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    Err = "shared cache: open(" + C.Path + "): " + std::strerror(errno);
    return false;
  }
  FilePath = C.Path;
  // Initialisation lock: the creator sizes and builds the segment before
  // anyone else maps it; attachers block here until it is complete.
  if (::flock(Fd, LOCK_EX) != 0) {
    Err = "shared cache: flock: " + std::string(std::strerror(errno));
    return false;
  }
  struct stat St {};
  if (::fstat(Fd, &St) != 0) {
    Err = "shared cache: fstat: " + std::string(std::strerror(errno));
    ::flock(Fd, LOCK_UN);
    return false;
  }

  bool Creating = St.st_size == 0;
  size_t Want = std::max<size_t>(C.MaxBytes, 1u << 20);
  size_t MapBytes = Creating ? Want : static_cast<size_t>(St.st_size);
  SegGeometry G;
  if (!segGeometryFor(MapBytes, sizeof(SegHeader), sizeof(SegSlot), G)) {
    Err = Creating
              ? "shared cache: segment too small for directory + arena"
              : "shared cache: " + C.Path + " has an incompatible layout";
    ::flock(Fd, LOCK_UN);
    return false;
  }
  if (Creating && ::ftruncate(Fd, static_cast<off_t>(MapBytes)) != 0) {
    Err = "shared cache: ftruncate: " + std::string(std::strerror(errno));
    ::flock(Fd, LOCK_UN);
    return false;
  }
  Map = ::mmap(nullptr, MapBytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (Map == MAP_FAILED) {
    Map = nullptr;
    Err = "shared cache: mmap: " + std::string(std::strerror(errno));
    ::flock(Fd, LOCK_UN);
    return false;
  }
  SegBytes = MapBytes;
  Hdr = static_cast<SegHeader *>(Map);

  if (Creating) {
    // ftruncate gave zero pages, so every atomic already reads 0; fill in
    // the geometry and publish the magic last.
    Hdr->Version.store(SegVersion, std::memory_order_relaxed);
    Hdr->SegBytes.store(MapBytes, std::memory_order_relaxed);
    Hdr->BucketCount.store(G.BucketCount, std::memory_order_relaxed);
    Hdr->SlotsPerBucket.store(SlotsPerBucketN, std::memory_order_relaxed);
    Hdr->DirOffset.store(G.DirOffset, std::memory_order_relaxed);
    Hdr->ArenaOffset.store(G.ArenaOffset, std::memory_order_relaxed);
    Hdr->ArenaBytes.store(G.ArenaBytes, std::memory_order_relaxed);
    Hdr->Magic.store(SegMagic, std::memory_order_release);
  } else if (Hdr->Magic.load(std::memory_order_acquire) != SegMagic ||
             Hdr->Version.load(std::memory_order_relaxed) != SegVersion ||
             Hdr->SegBytes.load(std::memory_order_relaxed) != MapBytes ||
             Hdr->SlotsPerBucket.load(std::memory_order_relaxed) !=
                 SlotsPerBucketN ||
             Hdr->BucketCount.load(std::memory_order_relaxed) !=
                 G.BucketCount ||
             Hdr->DirOffset.load(std::memory_order_relaxed) != G.DirOffset ||
             Hdr->ArenaOffset.load(std::memory_order_relaxed) !=
                 G.ArenaOffset ||
             Hdr->ArenaBytes.load(std::memory_order_relaxed) !=
                 G.ArenaBytes) {
    Err = "shared cache: " + C.Path + " has an incompatible layout";
    ::flock(Fd, LOCK_UN);
    return false;
  }
  ::flock(Fd, LOCK_UN);

  // The validated geometry is kept here, never re-read from the shared
  // header, so a later scribble over the header cannot move our bounds.
  Buckets = G.BucketCount;
  ArenaCap = G.ArenaBytes;
  Dir = reinterpret_cast<SegSlot *>(static_cast<unsigned char *>(Map) +
                                    G.DirOffset);
  Arena = static_cast<unsigned char *>(Map) + G.ArenaOffset;
  return true;
}

SharedCache::~SharedCache() {
  if (Map)
    ::munmap(Map, SegBytes);
  if (Fd >= 0)
    ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Lookup
//===----------------------------------------------------------------------===//

bool SharedCache::lookup(const CacheKey &K, L2Entry &Out) {
  const uint64_t Bucket = CacheKeyHash()(K) & (Buckets - 1);
  SegSlot *Slots = Dir + Bucket * SlotsPerBucketN;

  for (unsigned I = 0; I < SlotsPerBucketN; ++I) {
    SegSlot &S = Slots[I];
    for (int Attempt = 0; Attempt < 3; ++Attempt) {
      uint64_t S1 = S.Seq.load(std::memory_order_acquire);
      if (S1 & 1)
        break; // writer mid-publish: treat as absent
      uint64_t Hi = S.KeyHi.load(std::memory_order_acquire);
      uint64_t Lo = S.KeyLo.load(std::memory_order_acquire);
      uint64_t Off = S.Offset.load(std::memory_order_acquire);
      uint64_t Len = S.Bytes.load(std::memory_order_acquire);
      uint64_t S2 = S.Seq.load(std::memory_order_acquire);
      if (S1 != S2)
        continue; // republished underneath us: re-read
      if (Len == 0 || Hi != K.Hi || Lo != K.Lo)
        break;
      // Directory corruption is a miss. Written so no sum can wrap: a slot
      // of Offset = 2^63, Bytes = 2^63 + n must not pass as in bounds.
      if (Off > ArenaCap || Len > ArenaCap - Off ||
          Len < entryBytesFor(0) || ((Off | Len) & 7) != 0)
        break;
      if (readEntryAt(Off, Len, K, Out)) {
        // Re-check the slot: a wrap plus a republish could have recycled
        // both the slot and the region while we copied. A checksum match
        // with a changed slot is still almost certainly our value, but
        // the cheap re-read keeps the proof simple.
        if (S.Seq.load(std::memory_order_acquire) == S1) {
          S.LastUse.store(Hdr->Tick.fetch_add(1, std::memory_order_relaxed),
                          std::memory_order_relaxed);
          NHits.fetch_add(1, std::memory_order_relaxed);
          bumpObs("cache.l2.hits");
          return true;
        }
        continue;
      }
      // The slot named a region that no longer validates (torn write,
      // crashed writer, wrap overwrite): self-heal by emptying it so later
      // probes do not repeat the arena walk.
      uint64_t Expect = S1;
      if (S.Seq.compare_exchange_strong(Expect, S1 + 1,
                                        std::memory_order_acq_rel)) {
        S.KeyHi.store(0, std::memory_order_relaxed);
        S.KeyLo.store(0, std::memory_order_relaxed);
        S.Bytes.store(0, std::memory_order_relaxed);
        S.Offset.store(0, std::memory_order_relaxed);
        S.Seq.store(S1 + 2, std::memory_order_release);
      }
      break;
    }
  }
  NMisses.fetch_add(1, std::memory_order_relaxed);
  bumpObs("cache.l2.misses");
  return false;
}

bool SharedCache::readEntryAt(uint64_t Off, uint64_t Len, const CacheKey &K,
                              L2Entry &Out) {
  unsigned char *E = Arena + Off;
  // Commit word first, with acquire: it was released after the body, so a
  // valid commit means the body words below are the writer's.
  std::atomic_ref<uint64_t> Commit(
      *reinterpret_cast<uint64_t *>(E + Len - 8));
  if (Commit.load(std::memory_order_acquire) != EntryCommit)
    return false;

  uint64_t Head[EntryHeaderWords];
  copyWordsFromShared(Head, E, sizeof(Head));
  if (Head[0] != EntryMagic || Head[1] != K.Hi || Head[2] != K.Lo)
    return false;
  uint64_t PayloadBytes = Head[3];
  uint64_t StatsBytes = Head[5];
  // PayloadBytes > Len first: entryBytesFor would wrap on a huge value.
  if (StatsBytes != sizeof(AllocStats) || PayloadBytes > Len ||
      entryBytesFor(PayloadBytes) != Len)
    return false;

  AllocStats Stats{};
  copyWordsFromShared(&Stats, E + EntryHeaderWords * 8, sizeof(AllocStats));
  std::string Payload;
  Payload.resize(PayloadBytes);
  copyWordsFromShared(Payload.data(),
                      E + EntryHeaderWords * 8 + align8(sizeof(AllocStats)),
                      PayloadBytes);
  if (entryChecksum(Stats, Payload) != Head[4])
    return false; // torn or wrapped-over mid-copy

  Out.Payload = std::move(Payload);
  Out.Stats = Stats;
  return true;
}

//===----------------------------------------------------------------------===//
// Publish
//===----------------------------------------------------------------------===//

uint64_t SharedCache::claimArena(size_t Need) {
  for (;;) {
    uint64_t Cur = Hdr->Cursor.load(std::memory_order_relaxed);
    uint64_t Off, Next;
    // Overflow-safe, so a scribbled cursor wraps instead of writing out
    // of bounds.
    bool Wrap = Cur > ArenaCap || Need > ArenaCap - Cur;
    if (Wrap) {
      Off = 0;
      Next = Need;
    } else {
      Off = Cur;
      Next = Cur + Need;
    }
    if (Hdr->Cursor.compare_exchange_weak(Cur, Next,
                                          std::memory_order_acq_rel)) {
      if (Wrap)
        Hdr->Wraps.fetch_add(1, std::memory_order_relaxed);
      return Off;
    }
  }
}

bool SharedCache::writeEntry(const CacheKey &K, std::string_view Payload,
                             const AllocStats &Stats, uint64_t &OffOut,
                             uint64_t &LenOut, size_t TornPayloadBytes,
                             bool Torn) {
  size_t Need = entryBytesFor(Payload.size());
  if (Need > ArenaCap / 2) {
    NPublishRejected.fetch_add(1, std::memory_order_relaxed);
    bumpObs("cache.l2.publish_rejected");
    return false;
  }
  uint64_t Off = claimArena(Need);
  unsigned char *Dst = Arena + Off;

  uint64_t Head[EntryHeaderWords] = {
      EntryMagic,
      K.Hi,
      K.Lo,
      static_cast<uint64_t>(Payload.size()),
      entryChecksum(Stats, Payload),
      sizeof(AllocStats)};
  copyWordsToShared(Dst, Head, sizeof(Head));
  copyWordsToShared(Dst + EntryHeaderWords * 8, &Stats, sizeof(AllocStats));
  size_t PayloadOff = EntryHeaderWords * 8 + align8(sizeof(AllocStats));
  size_t PayloadBytes =
      Torn ? std::min(TornPayloadBytes, Payload.size()) : Payload.size();
  copyWordsToShared(Dst + PayloadOff, Payload.data(), PayloadBytes);

  std::atomic_ref<uint64_t> Commit(
      *reinterpret_cast<uint64_t *>(Dst + Need - 8));
  if (Torn)
    Commit.store(0, std::memory_order_release); // crash before commit
  else
    Commit.store(EntryCommit, std::memory_order_release);

  OffOut = Off;
  LenOut = Need;
  return true;
}

void SharedCache::publishSlot(const CacheKey &K, uint64_t Off, uint64_t Len) {
  const uint64_t Bucket = CacheKeyHash()(K) & (Buckets - 1);
  SegSlot *Slots = Dir + Bucket * SlotsPerBucketN;
  const uint64_t Now = Hdr->Tick.fetch_add(1, std::memory_order_relaxed);

  for (int Round = 0; Round < 4; ++Round) {
    // Victim preference: same key (replace) > empty > oldest LastUse.
    int Victim = -1;
    uint64_t OldestUse = ~0ull;
    for (unsigned I = 0; I < SlotsPerBucketN; ++I) {
      uint64_t Seq = Slots[I].Seq.load(std::memory_order_acquire);
      if (Seq & 1) {
        // A writer died here if the slot has been odd for a long time;
        // force it even so the bucket is not permanently one slot short.
        uint64_t Use = Slots[I].LastUse.load(std::memory_order_relaxed);
        if (Now > Use && Now - Use > StaleSlotTicks) {
          uint64_t Expect = Seq;
          if (Slots[I].Seq.compare_exchange_strong(
                  Expect, Seq + 1, std::memory_order_acq_rel)) {
            Slots[I].Bytes.store(0, std::memory_order_relaxed);
            Slots[I].KeyHi.store(0, std::memory_order_relaxed);
            Slots[I].KeyLo.store(0, std::memory_order_relaxed);
          }
        }
        continue;
      }
      uint64_t Hi = Slots[I].KeyHi.load(std::memory_order_relaxed);
      uint64_t Lo = Slots[I].KeyLo.load(std::memory_order_relaxed);
      uint64_t Bytes = Slots[I].Bytes.load(std::memory_order_relaxed);
      if (Bytes != 0 && Hi == K.Hi && Lo == K.Lo) {
        Victim = static_cast<int>(I);
        break;
      }
      // An empty slot ranks 0 and an occupied one LastUse + 1, so any empty
      // slot wins over every occupied one, wherever it sits in the bucket.
      uint64_t Use =
          Bytes == 0 ? 0 : Slots[I].LastUse.load(std::memory_order_relaxed) + 1;
      if (Use < OldestUse) {
        OldestUse = Use;
        Victim = static_cast<int>(I);
      }
    }
    if (Victim < 0)
      return; // whole bucket mid-write: drop the publish, entry stays dark

    SegSlot &S = Slots[Victim];
    uint64_t Seq = S.Seq.load(std::memory_order_acquire);
    if (Seq & 1)
      continue;
    uint64_t Expect = Seq;
    if (!S.Seq.compare_exchange_strong(Expect, Seq + 1,
                                       std::memory_order_acq_rel))
      continue; // lost the claim race: rescan
    S.KeyHi.store(K.Hi, std::memory_order_relaxed);
    S.KeyLo.store(K.Lo, std::memory_order_relaxed);
    S.Offset.store(Off, std::memory_order_relaxed);
    S.Bytes.store(Len, std::memory_order_relaxed);
    S.LastUse.store(Now, std::memory_order_relaxed);
    S.Seq.store(Seq + 2, std::memory_order_release);
    return;
  }
}

bool SharedCache::publish(const CacheKey &K, std::string_view Payload,
                          const AllocStats &Stats) {
  uint64_t Off = 0, Len = 0;
  if (!writeEntry(K, Payload, Stats, Off, Len, 0, /*Torn=*/false))
    return false;
  publishSlot(K, Off, Len);
  NFills.fetch_add(1, std::memory_order_relaxed);
  bumpObs("cache.l2.fills");
  return true;
}

void SharedCache::debugPublishTorn(const CacheKey &K, const L2Entry &E,
                                   size_t PayloadBytesWritten) {
  uint64_t Off = 0, Len = 0;
  if (!writeEntry(K, E.Payload, E.Stats, Off, Len, PayloadBytesWritten,
                  /*Torn=*/true))
    return;
  publishSlot(K, Off, Len);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

L2Stats SharedCache::stats() const {
  L2Stats S;
  S.Hits = NHits.load(std::memory_order_relaxed);
  S.Misses = NMisses.load(std::memory_order_relaxed);
  S.Fills = NFills.load(std::memory_order_relaxed);
  S.PublishRejected = NPublishRejected.load(std::memory_order_relaxed);
  S.Wraps = Hdr->Wraps.load(std::memory_order_relaxed);
  S.CapacityBytes = ArenaCap;
  // After a wrap the log is conceptually full; before it, the cursor is
  // exactly the occupied prefix.
  S.Bytes = S.Wraps ? S.CapacityBytes
                    : std::min<size_t>(
                          Hdr->Cursor.load(std::memory_order_relaxed),
                          S.CapacityBytes);

  size_t Live = 0;
  for (uint64_t I = 0; I < Buckets * SlotsPerBucketN; ++I) {
    uint64_t Seq = Dir[I].Seq.load(std::memory_order_acquire);
    if ((Seq & 1) == 0 && Dir[I].Bytes.load(std::memory_order_relaxed) != 0)
      ++Live;
  }
  S.Entries = Live;
  return S;
}

} // namespace cache
} // namespace lsra
