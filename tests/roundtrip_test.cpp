//===- tests/roundtrip_test.cpp - Printer/Parser wire-format tests --------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The textual IR doubles as the compile server's wire format, so the
// Printer→Parser round trip must be lossless over the whole workloads
// corpus — for unallocated modules (the request path: a round-tripped
// module must re-allocate to identical statistics) and for allocated
// modules (the response path: served output must re-parse and re-verify).
// The memory image is printed as run lines; its round trip is checked word
// for word on every program the golden and fuzz tests compile.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "target/Target.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lsra;

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

// Statistics equality, excluding wall-clock timing fields.
void expectSameStats(const AllocStats &A, const AllocStats &B,
                     const std::string &Ctx) {
  EXPECT_EQ(A.RegCandidates, B.RegCandidates) << Ctx;
  EXPECT_EQ(A.SpilledTemps, B.SpilledTemps) << Ctx;
  EXPECT_EQ(A.LifetimeSplits, B.LifetimeSplits) << Ctx;
  EXPECT_EQ(A.MovesCoalesced, B.MovesCoalesced) << Ctx;
  EXPECT_EQ(A.staticSpillInstrs(), B.staticSpillInstrs()) << Ctx;
}

class RoundTripTest : public ::testing::TestWithParam<const char *> {};

} // namespace

// Unallocated round trip: print → parse → verify → print again must be a
// fixed point, and the round-tripped module must allocate identically.
TEST_P(RoundTripTest, UnallocatedIsLossless) {
  const char *Name = GetParam();
  std::unique_ptr<Module> Orig = buildWorkload(Name);
  ASSERT_TRUE(Orig);
  std::string Text = printed(*Orig);

  ParseResult PR = parseModule(Text);
  ASSERT_TRUE(PR.ok()) << Name << ": " << PR.Error;
  EXPECT_EQ(verifyModule(*PR.M), "") << Name;
  EXPECT_EQ(printed(*PR.M), Text) << Name << ": re-print is not a fixed point";
}

TEST_P(RoundTripTest, RoundTrippedModuleAllocatesIdentically) {
  const char *Name = GetParam();
  const TargetDesc TD = TargetDesc::alphaLike();
  for (AllocatorKind K : {AllocatorKind::SecondChanceBinpack,
                          AllocatorKind::GraphColoring}) {
    std::unique_ptr<Module> Orig = buildWorkload(Name);
    std::string Text = printed(*Orig);
    AllocStats Ref = compileModule(*Orig, TD, K);

    ParseResult PR = parseModule(Text);
    ASSERT_TRUE(PR.ok()) << Name << ": " << PR.Error;
    AllocStats Got = compileModule(*PR.M, TD, K);
    expectSameStats(Ref, Got, std::string(Name) + " round-trip");

    // The allocated outputs must agree byte for byte, too.
    EXPECT_EQ(printed(*PR.M), printed(*Orig)) << Name;
  }
}

// Allocated round trip: served output must re-parse, re-verify, and
// survive the post-allocation structural check.
TEST_P(RoundTripTest, AllocatedIsLossless) {
  const char *Name = GetParam();
  const TargetDesc TD = TargetDesc::alphaLike();
  std::unique_ptr<Module> M = buildWorkload(Name);
  compileModule(*M, TD, AllocatorKind::SecondChanceBinpack);
  ASSERT_EQ(checkAllocated(*M), "") << Name;
  std::string Text = printed(*M);

  ParseResult PR = parseModule(Text);
  ASSERT_TRUE(PR.ok()) << Name << ": " << PR.Error;
  EXPECT_EQ(checkAllocated(*PR.M), "") << Name;
  EXPECT_EQ(printed(*PR.M), Text) << Name << ": re-print is not a fixed point";
}

// Allocated modules round-tripped through text must still execute with
// identical dynamic behaviour.
TEST_P(RoundTripTest, AllocatedRoundTripRunsIdentically) {
  const char *Name = GetParam();
  const TargetDesc TD = TargetDesc::alphaLike();
  std::unique_ptr<Module> M = buildWorkload(Name);
  compileModule(*M, TD, AllocatorKind::SecondChanceBinpack);
  RunResult Ref = runAllocated(*M, TD);
  ASSERT_TRUE(Ref.Ok) << Name << ": " << Ref.Error;

  ParseResult PR = parseModule(printed(*M));
  ASSERT_TRUE(PR.ok()) << Name << ": " << PR.Error;
  RunResult Got = runAllocated(*PR.M, TD);
  ASSERT_TRUE(Got.Ok) << Name << ": " << Got.Error;
  EXPECT_EQ(Got.ReturnValue, Ref.ReturnValue) << Name;
  EXPECT_EQ(Got.Stats.Total, Ref.Stats.Total) << Name;
  EXPECT_EQ(Got.Stats.spillInstrs(), Ref.Stats.spillInstrs()) << Name;
}

namespace {

/// print(parse(print(M))) == print(M), and the parsed image is M's.
void expectImageRoundTrip(const Module &M, const std::string &Name) {
  std::string Text = printed(M);
  ParseResult PR = parseModule(Text);
  ASSERT_TRUE(PR.ok()) << Name << ": " << PR.Error;
  EXPECT_EQ(PR.M->InitialMemory, M.InitialMemory) << Name;
  EXPECT_EQ(printed(*PR.M), Text) << Name << ": re-print is not a fixed point";
}

} // namespace

// The image prints as run lines and reads back word for word over every
// program the golden and fuzz tests compile: the 11 corpus programs,
// random programs 1-8 as code-cold runs them and fuzz programs 1-50.
TEST(ImageRoundTrip, CorpusRandomAndFuzzProgramsAreFixedPoints) {
  for (const WorkloadSpec &W : allWorkloads())
    expectImageRoundTrip(*W.Build(), W.Name);
  RandomProgramOptions RO;
  RO.Statements = 300;
  RO.HelperFuncs = 4;
  for (uint64_t S = 1; S <= 8; ++S)
    expectImageRoundTrip(*buildRandomProgram(S, RO),
                         "random-" + std::to_string(S));
  check::FuzzOptions FO;
  for (uint64_t S = 1; S <= 50; ++S)
    expectImageRoundTrip(*buildRandomProgram(S, FO.Program),
                         "fuzz-" + std::to_string(S));
}

// Runs at both ends of the image, single words, one-word gaps, a trailing
// zero tail, full 64-bit values and an all-zero image.
TEST(ImageRoundTrip, RunEdgesAreFixedPoints) {
  std::unique_ptr<Module> M = buildWorkload("li");
  M->InitialMemory = {UINT64_MAX, 1, 0, 0x10, 0, 0, 1ull << 63, 0xabc, 0};
  expectImageRoundTrip(*M, "edges");
  std::string Text = printed(*M);
  EXPECT_EQ(Text.substr(0, Text.find("func ")),
            "memsize 9\nmem 0 ffffffffffffffff 1\nmem 3 10\n"
            "mem 6 8000000000000000 abc\n\n");
  M->InitialMemory = {0, 0, 7};
  expectImageRoundTrip(*M, "last word");
  M->InitialMemory.assign(5, 0);
  expectImageRoundTrip(*M, "all zero");
  M->InitialMemory.clear();
  expectImageRoundTrip(*M, "no image");
}

INSTANTIATE_TEST_SUITE_P(Corpus, RoundTripTest,
                         ::testing::Values("alvinn", "doduc", "eqntott",
                                           "espresso", "fpppp", "li",
                                           "tomcatv", "compress", "m88ksim",
                                           "sort", "wc"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });
