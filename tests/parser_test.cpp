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

#include <chrono>
#include <random>
#include <sstream>
#include <string_view>

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

TEST(Parser, CrlfTrailingBlanksAndCommentsAreIgnored) {
  // Windows line ends, trailing spaces, blank lines and ";" comment lines
  // (corpus replay headers) do not change the module.
  auto M = buildWorkload("fpppp");
  std::string Once = moduleText(*M);
  std::string Noisy = "; oracle: replay header\n\n   \n";
  for (char C : Once)
    Noisy += C == '\n' ? std::string("  \r\n") : std::string(1, C);
  ParseResult R = parseModule(Noisy);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(moduleText(*R.M), Once);
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

/// Parses "mem 7 0x2\n" + \p Line + a function and expects an error on
/// line 2 at column \p Col naming token \p Tok, with \p Msg in it.
void expectImageError(const std::string &Line, unsigned Col,
                      const std::string &Tok, const std::string &Msg) {
  ParseResult R = parseModule(
      "mem 7 0x2\n" + Line +
      "\nfunc main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
      "bb0 (entry):\n  movi %0, 0\n  ret %0\n");
  ASSERT_FALSE(R.ok()) << Line;
  EXPECT_EQ(R.ErrLine, 2u) << R.Error;
  EXPECT_EQ(R.ErrCol, Col) << R.Error;
  EXPECT_EQ(R.ErrToken, Tok) << R.Error;
  EXPECT_NE(R.Error.find(Msg), std::string::npos) << R.Error;
}

// A memory image of MaxMemoryWords or more is a typed error on its line:
// `mem 4294967295` would wrap `Addr + 1` to 0 in 32 bits, and the 3e9
// images do not fit in memory.
void expectImageTooLarge(const std::string &Line, const std::string &Tok) {
  expectImageError(Line, static_cast<unsigned>(Line.rfind(Tok)) + 1, Tok,
                   "out of range");
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

// The printed image is one "mem ADDR V1 V2 ... Vn" line per run of nonzero
// words after a leading memsize; the reader takes any mix of bare and
// "0x" values, and memsize anywhere, as older text has it.
ParseResult withImage(const std::string &Lines) {
  return parseModule(
      Lines + "func main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
              "bb0 (entry):\n  movi %0, 0\n  ret %0\n");
}

/// The image \p Lines parse to; empty (and a failure) if they do not.
std::vector<uint64_t> imageOf(const std::string &Lines) {
  ParseResult R = withImage(Lines);
  EXPECT_TRUE(R.ok()) << Lines << R.Error;
  return R.ok() ? R.M->InitialMemory : std::vector<uint64_t>();
}

/// The image lines \p Lines print as: the module text before its function.
std::string reprintedImage(const std::string &Lines) {
  ParseResult R = withImage(Lines);
  EXPECT_TRUE(R.ok()) << Lines << R.Error;
  if (!R.ok())
    return "";
  std::string Text = moduleText(*R.M);
  return Text.substr(0, Text.find("func "));
}

TEST(ParserImage, RunLinesFillConsecutiveWords) {
  EXPECT_EQ(imageOf("memsize 8\nmem 2 0x1 2 0xff AB\nmem 7 0\n"),
            (std::vector<uint64_t>{0, 0, 1, 2, 0xff, 0xab, 0, 0}));
  // Sixteen digits, with or without 0x, is the whole 64-bit word.
  EXPECT_EQ(imageOf("mem 0 ffffffffffffffff 0x8000000000000000\n"),
            (std::vector<uint64_t>{UINT64_MAX, 1ull << 63}));
}

TEST(ParserImage, MemsizeAfterTheRunsAsOldTextHasIt) {
  EXPECT_EQ(imageOf("mem 1 0x5\nmem 3 0x6\nmemsize 6\n"),
            (std::vector<uint64_t>{0, 5, 0, 6, 0, 0}));
  // A run past a smaller memsize, before or after it, sizes the image.
  EXPECT_EQ(imageOf("memsize 2\nmem 1 1 2 3\n").size(), 4u);
  EXPECT_EQ(imageOf("mem 1 1 2 3\nmemsize 2\n").size(), 4u);
  // Printed again, memsize comes first and adjacent words share a run.
  EXPECT_EQ(reprintedImage("mem 1 0x5\nmem 3 0x6\nmemsize 6\n"),
            "memsize 6\nmem 1 5\nmem 3 6\n\n");
  EXPECT_EQ(reprintedImage("mem 1 0x1\nmem 2 0x2\n"),
            "memsize 3\nmem 1 1 2\n\n");
  EXPECT_EQ(reprintedImage("mem 0 0\nmemsize 2\n"), "memsize 2\n\n");
}

TEST(ParserImage, TrailingBlankIsTrimmedButNotAValue) {
  EXPECT_EQ(imageOf("mem 3 1 \n"), (std::vector<uint64_t>{0, 0, 0, 1}));
  ParseResult R = withImage("mem 3 \n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 1u);
  EXPECT_NE(R.Error.find("mem line without a value"), std::string::npos)
      << R.Error;
  EXPECT_EQ(R.ErrToken, "3");
  EXPECT_EQ(R.ErrCol, 5u);
}

TEST(ParserImage, ValueOfSeventeenDigitsIsAnError) {
  expectImageError("mem 3 12345678901234567", 7, "12345678901234567",
                   "bad mem value");
  expectImageError("mem 3 1 0x12345678901234567 2", 9, "0x12345678901234567",
                   "bad mem value");
}

TEST(ParserImage, DoubledBlankOrBadValueIsAnError) {
  // The empty value between two blanks is reported at the second one.
  expectImageError("mem 3 1  2", 9, "", "bad mem value");
  expectImageError("mem 3  1", 7, "", "bad mem value");
  expectImageError("mem 3 1 0x", 9, "0x", "bad mem value");
  expectImageError("mem 3 1 0X5", 9, "0X5", "bad mem value");
  expectImageError("mem 3 1 5g 6", 9, "5g", "bad mem value");
  expectImageError("mem 3x 1", 5, "3x", "bad mem address");
  expectImageError("mem -3 1", 5, "-3", "bad mem address");
}

TEST(ParserImage, RunThatCrossesTheBoundIsAnErrorAtThatValue) {
  // Words MaxMemoryWords - 2 and - 1 are in range; the third value is not.
  std::string Addr = std::to_string(MaxMemoryWords - 2);
  std::string Line = "mem " + Addr + " a 0xb 0xc d";
  expectImageError(Line, static_cast<unsigned>(Line.find("0xc")) + 1, "0xc",
                   "mem run out of range");
}

// A header's vregs=/slots= counts are read strictly and bounded by
// MaxDeclaredIds: the parser allocates per declared id, so a huge count is a
// typed error on its line, in well under 10 ms, not an allocation the host
// cannot make.
void expectHeaderError(const std::string &Counts, const std::string &Tok,
                       const std::string &Msg) {
  std::string Header =
      "func main (iparams=0 fparams=0 ret=int " + Counts + ")";
  auto T0 = std::chrono::steady_clock::now();
  ParseResult R =
      parseModule(Header + "\nbb0 (entry):\n  movi %0, 0\n  ret %0\n");
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ASSERT_FALSE(R.ok()) << Counts;
  EXPECT_EQ(R.ErrLine, 1u) << R.Error;
  EXPECT_EQ(R.ErrToken, Tok) << R.Error;
  EXPECT_EQ(R.ErrCol, Header.find(Tok) + 1) << R.Error;
  EXPECT_NE(R.Error.find(Msg), std::string::npos) << R.Error;
  EXPECT_LT(Ms, 10.0) << Counts;
}

TEST(ParserDiagnostics, HugeDeclaredCountsAreRejected) {
  expectHeaderError("vregs=2000000000 slots=0", "2000000000",
                    "vregs out of range");
  expectHeaderError("vregs=1 slots=2000000000", "2000000000",
                    "slots out of range");
  // Overflowing 64 bits is the same error, not a wrapped count.
  expectHeaderError("vregs=99999999999999999999999 slots=0",
                    "99999999999999999999999", "vregs out of range");
  std::string Limit = std::to_string(MaxDeclaredIds);
  expectHeaderError("vregs=" + Limit + " slots=0", Limit,
                    "vregs out of range");
  expectHeaderError("vregs=1 slots=" + Limit, Limit, "slots out of range");
  // The bound is exclusive: one below it still parses.
  std::string Below = std::to_string(MaxDeclaredIds - 1);
  ParseResult R = parseModule("func main (iparams=0 fparams=0 ret=int vregs=" +
                              Below + " slots=" + Below +
                              ")\nbb0 (entry):\n  movi %0, 0\n  ret %0\n");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.M->function(0).numVRegs(), MaxDeclaredIds - 1);
  EXPECT_EQ(R.M->function(0).numSlots(), MaxDeclaredIds - 1);
}

TEST(ParserDiagnostics, DeclaredCountsAreDigitsOnly) {
  expectHeaderError("vregs=zz slots=0", "zz", "bad vregs count");
  expectHeaderError("vregs=1x slots=0", "1x", "bad vregs count");
  expectHeaderError("vregs=+1 slots=0", "+1", "bad vregs count");
  expectHeaderError("vregs=1 slots=-1", "-1", "bad slots count");
  expectHeaderError("vregs= slots=0", "vregs=", "bad vregs count");
}

TEST(ParserDiagnostics, DuplicateFunctionName) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
      "bb0 (entry):\n  movi %0, 0\n  ret %0\n"
      "\n"
      "func f (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
      "bb0 (entry):\n  movi %0, 1\n  ret %0\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 6u) << R.Error;
  EXPECT_EQ(R.ErrCol, 6u) << R.Error;
  EXPECT_EQ(R.ErrToken, "f");
  EXPECT_NE(R.Error.find("duplicate function 'f'"), std::string::npos)
      << R.Error;
}

TEST(ParserDiagnostics, UnknownCallTargetHasPosition) {
  ParseResult R = parseModule(
      "func f (iparams=0 fparams=0 ret=void vregs=1 slots=0)\n"
      "bb0 (entry):\n"
      "  call @nosuch  (iargs=0 fargs=0)\n"
      "  ret\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrLine, 3u) << R.Error;
  EXPECT_EQ(R.ErrCol, 8u) << R.Error;
  EXPECT_EQ(R.ErrToken, "@nosuch");
}

/// Parses \p Text and checks the outcome is a module or a typed error that
/// points into the text: ErrLine names one of its lines and ErrCol, when
/// set, the place ErrToken occurs. Line 0 is allowed only for the one
/// whole-text error, a text without any function.
void expectModuleOrTypedError(const std::string &Text,
                              const std::string &What) {
  ParseResult R = parseModule(Text);
  if (R.ok())
    return;
  ASSERT_FALSE(R.Error.empty()) << What;
  std::vector<std::string_view> Lines;
  std::string_view Rest = Text;
  while (!Rest.empty()) {
    size_t NL = Rest.find('\n');
    Lines.push_back(Rest.substr(0, NL));
    Rest.remove_prefix(NL == std::string_view::npos ? Rest.size() : NL + 1);
  }
  if (R.ErrLine == 0) {
    EXPECT_NE(R.Error.find("empty module"), std::string::npos)
        << What << ": " << R.Error;
    return;
  }
  ASSERT_LE(R.ErrLine, Lines.size()) << What << ": " << R.Error;
  if (R.ErrCol) {
    std::string_view L = Lines[R.ErrLine - 1];
    ASSERT_LE(R.ErrCol - 1 + R.ErrToken.size(), L.size())
        << What << ": " << R.Error;
    EXPECT_EQ(L.substr(R.ErrCol - 1, R.ErrToken.size()), R.ErrToken)
        << What << ": " << R.Error;
  }
}

/// Every line prefix of \p Text, then 256 seeded single-byte flips.
void sweepHostileText(const std::string &Text, const std::string &Name) {
  for (size_t P = Text.find('\n'); P != std::string::npos;
       P = Text.find('\n', P + 1)) {
    expectModuleOrTypedError(Text.substr(0, P + 1),
                             Name + " prefix of " + std::to_string(P + 1) +
                                 " bytes");
    if (testing::Test::HasFatalFailure())
      return;
  }
  std::mt19937_64 Rng(1998);
  for (int I = 0; I < 256; ++I) {
    std::string Flipped = Text;
    size_t At = Rng() % Flipped.size();
    Flipped[At] = static_cast<char>(Flipped[At] ^ (1 + Rng() % 255));
    expectModuleOrTypedError(Flipped, Name + " byte " + std::to_string(At) +
                                          " flipped");
    if (testing::Test::HasFatalFailure())
      return;
  }
}

TEST(ParserHostile, PrefixesAndByteFlipsGiveModuleOrTypedError) {
  // An allocated corpus module (memory image, pregs, slots, spill tags,
  // lowered calls) and a random program (calls, params, fp declarations).
  auto Corpus = buildWorkload("fpppp");
  compileModule(*Corpus, TargetDesc::alphaLike(),
                AllocatorKind::SecondChanceBinpack);
  sweepHostileText(moduleText(*Corpus), "fpppp");
  sweepHostileText(moduleText(*buildRandomProgram(70)), "random-70");
  // li's image is 254 runs with zero gaps, so flips land inside lines of
  // several values.
  auto Li = buildWorkload("li");
  compileModule(*Li, TargetDesc::alphaLike(),
                AllocatorKind::SecondChanceBinpack);
  sweepHostileText(moduleText(*Li), "li");
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
