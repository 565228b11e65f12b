//===- tests/parser_test.cpp - Textual IR round trips ----------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace lsra;

namespace {

std::string moduleText(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

TEST(Parser, ParsesHandWrittenFunction) {
  const char *Text = R"(func main (iparams=0 fparams=0 ret=int vregs=3 slots=0)
bb0 (entry):
  movi %0, 41
  add %1, %0, 1
  emit %1
  movi %2, 0
  ret %2
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(verifyModule(*R.M), "");
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  ASSERT_EQ(Run.Output.size(), 1u);
  EXPECT_EQ(Run.Output[0], 42u);
}

TEST(Parser, ParsesControlFlowAndFloats) {
  const char *Text = R"(func main (iparams=0 fparams=0 ret=int vregs=5 slots=0)
  fpvregs: %1 %2
bb0 (entry):
  movi %0, 1
  movf %1, 2.5
  fadd %2, %1, %1
  femit %2
  cbr %0, bb1, bb2
bb1 (t):
  movi %3, 0
  ret %3
bb2 (f):
  movi %4, 1
  ret %4
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(verifyModule(*R.M), "");
  EXPECT_EQ(R.M->function(0).vregClass(1), RegClass::Float);
  EXPECT_EQ(R.M->function(0).numBlocks(), 3u);
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok);
  double D;
  __builtin_memcpy(&D, &Run.Output[0], sizeof(D));
  EXPECT_DOUBLE_EQ(D, 5.0);
  EXPECT_EQ(Run.ReturnValue, 0);
}

TEST(Parser, ParsesCallsAndMemory) {
  const char *Text = R"(mem 3 0x2a
memsize 16

func double (iparams=1 fparams=0 ret=int vregs=2 slots=0)
  params: %0
bb0 (entry):
  add %1, %0, %0
  ret %1

func main (iparams=0 fparams=0 ret=int vregs=4 slots=0)
bb0 (entry):
  movi %0, 0
  ld %1, %0, 3
  carg %1, 0
  call @double  (iargs=1 fargs=0)
  cres %2
  emit %2
  movi %3, 0
  ret %3
)";
  ParseResult R = parseModule(Text);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->numFunctions(), 2u);
  EXPECT_EQ(R.M->InitialMemory.size(), 16u);
  TargetDesc TD = TargetDesc::alphaLike();
  RunResult Run = runReference(*R.M, TD);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.Output[0], 84u);
}

TEST(Parser, ReportsErrors) {
  EXPECT_FALSE(parseModule("func f (iparams=0)\nbb0 (e):\n  ret\n").ok());
  EXPECT_FALSE(parseModule("bogus line\n").ok());
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=0 slots=0)\n"
      "bb0 (e):\n  frobnicate %0\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown opcode"), std::string::npos);
  ParseResult R2 = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (e):\n  carg %0, 0\n  call @nosuch  (iargs=1 fargs=0)\n"
      "  ret\n");
  ASSERT_FALSE(R2.ok());
  EXPECT_NE(R2.Error.find("unknown call target"), std::string::npos);
}

class WorkloadRoundTrip : public testing::TestWithParam<const char *> {};

TEST_P(WorkloadRoundTrip, PrintParsePrintIsStable) {
  auto M = buildWorkload(GetParam());
  std::string Once = moduleText(*M);
  ParseResult R = parseModule(Once);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(moduleText(*R.M), Once);
}

TEST_P(WorkloadRoundTrip, ParsedModuleRunsIdentically) {
  TargetDesc TD = TargetDesc::alphaLike();
  auto M = buildWorkload(GetParam());
  ParseResult R = parseModule(moduleText(*M));
  ASSERT_TRUE(R.ok()) << R.Error;
  RunResult A = runReference(*M, TD);
  RunResult B = runReference(*R.M, TD);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Stats.Total, B.Stats.Total);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadRoundTrip,
    testing::Values("alvinn", "doduc", "eqntott", "espresso", "fpppp", "li",
                    "tomcatv", "compress", "m88ksim", "sort", "wc"),
    [](const testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

TEST(Parser, AllocatedCodeRoundTrips) {
  // Post-allocation code (physical registers, slots, spill tags, lowered
  // calls, callee saves) must survive the text form too.
  TargetDesc TD = TargetDesc::alphaLike();
  auto M = buildWorkload("fpppp");
  compileModule(*M, TD, AllocatorKind::SecondChanceBinpack);
  std::string Once = moduleText(*M);
  ParseResult R = parseModule(Once);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(moduleText(*R.M), Once);
  RunResult A = runAllocated(*M, TD);
  RunResult B = runAllocated(*R.M, TD);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.Output, B.Output);
  // Spill tags survive, so the dynamic accounting matches exactly.
  EXPECT_EQ(A.Stats.spillInstrs(), B.Stats.spillInstrs());
}

TEST(Parser, RandomProgramsRoundTrip) {
  for (uint64_t Seed = 70; Seed < 80; ++Seed) {
    auto M = buildRandomProgram(Seed);
    std::string Once = moduleText(*M);
    ParseResult R = parseModule(Once);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    EXPECT_EQ(moduleText(*R.M), Once) << "seed " << Seed;
  }
}

// Negative inputs: the parser must report the line, column, and offending
// token of the first error — this is what the compile server forwards to
// clients in typed Error responses.
TEST(ParserDiagnostics, UnknownOpcodePosition) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  frobnicate %0, 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrCol, 3u); // two-space indent, token starts at column 3
  EXPECT_EQ(R.ErrToken, "frobnicate");
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("col 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos) << R.Error;
}

TEST(ParserDiagnostics, BadOperandPosition) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  movi %0, notanumber\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrToken, "notanumber");
}

TEST(ParserDiagnostics, BadVregOperand) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  movi %zzz, 1\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u);
  EXPECT_EQ(R.ErrToken, "%zzz");
}

TEST(ParserDiagnostics, BadFunctionHeader) {
  ParseResult R = parseModule("func f (iparams=banana)\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 1u);
  EXPECT_GT(R.ErrCol, 0u);
}

TEST(ParserDiagnostics, UnexpectedTopLevelLine) {
  ParseResult R = parseModule("this is not ir\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 1u);
  EXPECT_FALSE(R.ErrToken.empty());
}

TEST(ParserDiagnostics, UnknownCallTargetToken) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  carg %0, 0\n"
      "  call @nosuch  (iargs=1 fargs=0)\n"
      "  ret\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown call target"), std::string::npos);
  EXPECT_EQ(R.ErrToken, "@nosuch");
}

// A memory image of MaxMemoryWords or more is a typed error on its line:
// `mem 4294967295` would wrap `Addr + 1` to 0 in 32 bits, and the 3e9
// images do not fit in memory.
void expectImageTooLarge(const std::string &Line, const std::string &Tok) {
  ParseResult R = parseModule(
      "mem 7 0x2\n" + Line +
      "\nfunc main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
      "bb0 (entry):\n  movi %0, 0\n  ret %0\n");
  ASSERT_FALSE(R.ok()) << Line;
  EXPECT_EQ(R.ErrLine, 2u) << Line;
  EXPECT_NE(R.Error.find("out of range"), std::string::npos) << R.Error;
  EXPECT_EQ(R.ErrToken, Tok);
}

TEST(ParserDiagnostics, MemAddressThatWrapsIsRejected) {
  expectImageTooLarge("mem 4294967295 0x1", "4294967295");
}

TEST(ParserDiagnostics, HugeMemAddressIsRejected) {
  expectImageTooLarge("mem 3000000000 0x1", "3000000000");
}

TEST(ParserDiagnostics, HugeMemsizeIsRejected) {
  expectImageTooLarge("memsize 3000000000", "3000000000");
}

TEST(ParserDiagnostics, MemoryImageBoundIsExclusive) {
  std::string Limit = std::to_string(MaxMemoryWords);
  expectImageTooLarge("mem " + Limit + " 0x1", Limit);
  expectImageTooLarge("memsize " + Limit, Limit);
}

TEST(ParserDiagnostics, EmptyInputIsAnError) {
  EXPECT_FALSE(parseModule("").ok());
  EXPECT_FALSE(parseModule("\n\n# only comments\n").ok());
}

TEST(Printer, DotExportContainsBlocksAndEdges) {
  auto M = buildWorkload("eqntott");
  std::ostringstream OS;
  printDotCFG(OS, M->function(0), M.get());
  std::string S = OS.str();
  EXPECT_NE(S.find("digraph"), std::string::npos);
  EXPECT_NE(S.find("bb0"), std::string::npos);
  EXPECT_NE(S.find("->"), std::string::npos);
}

} // namespace
