//===- tests/registry_test.cpp - Allocator registry tests -----------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The allocator registry keeps every externally visible identity stable:
// names, legacy spellings and kind ids all participate in flags or cache
// keys. These tests pin them down, together with the capability flags
// that decide which analyses a backend is given.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Registry.h"

#include <gtest/gtest.h>

using namespace lsra;

namespace {

// Kind ids participate in cache keys (L1 and the cross-process L2): they
// are append-only and these numeric values must never change.
TEST(Registry, KindIdsAreStable) {
  EXPECT_EQ(static_cast<int>(AllocatorKind::SecondChanceBinpack), 0);
  EXPECT_EQ(static_cast<int>(AllocatorKind::GraphColoring), 1);
  EXPECT_EQ(static_cast<int>(AllocatorKind::TwoPassBinpack), 2);
  EXPECT_EQ(static_cast<int>(AllocatorKind::PolettoScan), 3);
  EXPECT_EQ(static_cast<int>(AllocatorKind::EbbScan), 4);
}

TEST(Registry, EveryBackendRegistered) {
  const auto &Kinds = AllocatorRegistry::global().kinds();
  ASSERT_EQ(Kinds.size(), 5u);
  for (AllocatorKind K : Kinds) {
    const AllocatorInfo &Info = AllocatorRegistry::global().info(K);
    EXPECT_EQ(Info.Kind, K);
    EXPECT_NE(Info.Name, nullptr);
    EXPECT_NE(Info.Run, nullptr);
    // The canonical name must resolve back to the same kind.
    AllocatorKind Back;
    ASSERT_TRUE(parseAllocatorName(Info.Name, Back)) << Info.Name;
    EXPECT_EQ(Back, K) << Info.Name;
  }
}

// Flag spellings are user-facing API: every historical alias keeps
// parsing to the kind it always named.
TEST(Registry, LegacySpellingsStillParse) {
  struct {
    const char *Name;
    AllocatorKind K;
  } Cases[] = {
      {"binpack", AllocatorKind::SecondChanceBinpack},
      {"second-chance", AllocatorKind::SecondChanceBinpack},
      {"second-chance-binpack", AllocatorKind::SecondChanceBinpack},
      {"coloring", AllocatorKind::GraphColoring},
      {"graph-coloring", AllocatorKind::GraphColoring},
      {"twopass", AllocatorKind::TwoPassBinpack},
      {"two-pass", AllocatorKind::TwoPassBinpack},
      {"two-pass-binpack", AllocatorKind::TwoPassBinpack},
      {"poletto", AllocatorKind::PolettoScan},
      {"poletto-scan", AllocatorKind::PolettoScan},
      {"ebb", AllocatorKind::EbbScan},
      {"ebbscan", AllocatorKind::EbbScan},
      {"ebb-scan", AllocatorKind::EbbScan},
  };
  for (const auto &C : Cases) {
    AllocatorKind K;
    ASSERT_TRUE(parseAllocatorName(C.Name, K)) << C.Name;
    EXPECT_EQ(K, C.K) << C.Name;
  }
  AllocatorKind K;
  EXPECT_FALSE(parseAllocatorName("no-such-allocator", K));
}

// Capability flags drive analysis warming: the EBB backend must not
// demand global liveness (the whole point of the EBB construction).
TEST(Registry, CapabilityFlags) {
  const AllocatorRegistry &R = AllocatorRegistry::global();
  EXPECT_TRUE(R.info(AllocatorKind::SecondChanceBinpack)
                  .needs(CapNeedsLiveness));
  EXPECT_TRUE(R.info(AllocatorKind::GraphColoring).needs(CapNeedsLoops));
  EXPECT_FALSE(R.info(AllocatorKind::EbbScan).needs(CapNeedsLiveness));
  EXPECT_FALSE(R.info(AllocatorKind::EbbScan).needs(CapNeedsLifetimes));
}

} // namespace
