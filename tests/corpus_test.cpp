//===- tests/corpus_test.cpp - Fuzzer-finding regression replay -----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Replays every minimized reproducer under tests/corpus/ through the full
// differential oracle (structural check, allocation verifier, reference vs
// allocated execution). Each file was a wrong-code bug when committed; the
// oracle must be clean now — for the configuration that originally failed
// and for every other allocator at the same register limit.
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "ir/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

namespace {

namespace fs = std::filesystem;

struct CorpusCase {
  std::string File;
  std::string Text;
  AllocatorKind K = AllocatorKind::SecondChanceBinpack;
  unsigned Regs = 0;
  bool Cleanup = false;
};

bool allocatorFromName(const std::string &Name, AllocatorKind &Out) {
  for (AllocatorKind K :
       {AllocatorKind::SecondChanceBinpack, AllocatorKind::GraphColoring,
        AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan}) {
    if (Name == allocatorName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

/// Parse "; oracle: allocator=binpack regs=4 cleanup=0 ..." headers.
bool parseHeader(const std::string &Line, CorpusCase &C) {
  if (Line.rfind("; oracle:", 0) != 0)
    return false;
  std::istringstream IS(Line.substr(9));
  std::string Tok;
  while (IS >> Tok) {
    auto Eq = Tok.find('=');
    if (Eq == std::string::npos)
      continue;
    std::string Key = Tok.substr(0, Eq), Val = Tok.substr(Eq + 1);
    if (Key == "allocator") {
      if (!allocatorFromName(Val, C.K))
        return false;
    } else if (Key == "regs") {
      C.Regs = static_cast<unsigned>(std::stoul(Val));
    } else if (Key == "cleanup") {
      C.Cleanup = Val == "1";
    }
  }
  return true;
}

std::vector<CorpusCase> loadCorpus() {
  std::vector<CorpusCase> Cases;
  fs::path Dir(LSRA_CORPUS_DIR);
  if (!fs::exists(Dir))
    return Cases;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".ir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &F : Files) {
    std::ifstream In(F);
    std::stringstream SS;
    SS << In.rdbuf();
    CorpusCase C;
    C.File = F.filename().string();
    C.Text = SS.str();
    std::string FirstLine = C.Text.substr(0, C.Text.find('\n'));
    EXPECT_TRUE(parseHeader(FirstLine, C))
        << C.File << ": missing '; oracle:' header";
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// \p Text from its first `func ` line on.
std::string functionText(const std::string &Text) {
  size_t At = Text.rfind("func ", 0) == 0 ? 0 : Text.find("\nfunc ");
  return At == std::string::npos ? "" : Text.substr(At + (At != 0));
}

// sort_spill_implemented_copy.ir keeps the image as it was printed before
// run lines: 4,096 one-word `mem ADDR 0xV` lines, then memsize. It reads
// to the image and functions of its reprint, which is one run line.
TEST(Corpus, LegacyImageLinesReadAsTheirReprint) {
  for (const CorpusCase &C : loadCorpus()) {
    if (C.File != "sort_spill_implemented_copy.ir")
      continue;
    size_t OneWord = 0;
    for (size_t P = C.Text.find("\nmem "); P != std::string::npos;
         P = C.Text.find("\nmem ", P + 1))
      OneWord += C.Text.compare(C.Text.find(' ', P + 5), 3, " 0x") == 0;
    EXPECT_EQ(OneWord, 4096u);
    ParseResult Legacy = parseModule(C.Text);
    ASSERT_TRUE(Legacy.ok()) << Legacy.Error;
    std::string Reprint;
    printModule(Reprint, *Legacy.M);
    ParseResult Again = parseModule(Reprint);
    ASSERT_TRUE(Again.ok()) << Again.Error;
    EXPECT_EQ(Again.M->InitialMemory, Legacy.M->InitialMemory);
    EXPECT_EQ(Legacy.M->InitialMemory.size(), 4096u);
    std::string Twice;
    printModule(Twice, *Again.M);
    EXPECT_EQ(Twice, Reprint);
    EXPECT_EQ(functionText(Reprint), functionText(C.Text));
    EXPECT_LT(Reprint.size() * 2, C.Text.size());
    return;
  }
  FAIL() << "sort_spill_implemented_copy.ir is missing";
}

TEST(Corpus, ReproducersPassOracle) {
  for (const CorpusCase &C : loadCorpus()) {
    OracleResult O = runOracle(C.Text, C.K, C.Regs, C.Cleanup);
    EXPECT_TRUE(O.pass()) << C.File << " (" << allocatorName(C.K)
                          << " regs=" << C.Regs << "): " << O.Kind << ": "
                          << O.Detail;
  }
}

TEST(Corpus, ReproducersPassEveryAllocator) {
  for (const CorpusCase &C : loadCorpus()) {
    for (AllocatorKind K :
         {AllocatorKind::SecondChanceBinpack, AllocatorKind::GraphColoring,
          AllocatorKind::TwoPassBinpack, AllocatorKind::PolettoScan}) {
      for (bool Cleanup : {false, true}) {
        OracleResult O = runOracle(C.Text, K, C.Regs, Cleanup);
        EXPECT_TRUE(O.pass()) << C.File << " cross-checked with "
                              << allocatorName(K)
                              << (Cleanup ? " +cleanup" : "") << ": "
                              << O.Kind << ": " << O.Detail;
      }
    }
  }
}

} // namespace
