//===- tests/compile_golden_test.cpp - Pinned allocator and DCE output ----===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins what the compile pipeline produces — the allocated code of every
// backend and the dead-code elimination in front of it — for a fixed set
// of (program, backend, register limit) points:
//
//   - the four Table 3 modules and random programs 1-8 (300 statements,
//     4 helpers) at 8 int + 8 fp registers, as lsrabench's code-cold runs
//     them, and the random programs again at the full register file,
//     where large graphs with call-clobber edges need several rounds;
//   - the 11 corpus programs at the full register file;
//   - `lsra fuzz` programs 1-50 at register limits 0 (full), 8 and 4.
//
// Each point goes text -> parse -> lowerCalls -> eliminateDeadCode ->
// allocateModule -> print, like compileTextModule, and gives one line: the
// FNV-1a 64 hash of the printed allocated module, SpilledTemps,
// InterferenceEdges, ColoringIterations, MovesCoalesced and the number of
// instructions DCE removed. The lines must match
// tests/golden/compile_outputs.txt byte for byte. The file is regenerated
// only when an output change is intended:
//
//   compile_golden_test --write tests/golden/compile_outputs.txt
//
//===----------------------------------------------------------------------===//

#include "check/Fuzz.h"
#include "driver/Pipeline.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "regalloc/Registry.h"
#include "target/LowerCalls.h"
#include "workloads/RandomProgram.h"
#include "workloads/SyntheticModule.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace lsra;

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Register limit \p Regs int + \p Regs fp; 0 = the full register file.
TargetDesc targetFor(unsigned Regs) {
  TargetDesc TD = TargetDesc::alphaLike();
  return Regs ? TD.withRegLimit(Regs, Regs) : TD;
}

/// One line for (program text, backend, register limit).
std::string compileLine(const std::string &Name, const std::string &Text,
                        AllocatorKind K, unsigned Regs) {
  ParseResult P = parseModule(Text);
  EXPECT_TRUE(P.ok()) << Name << ": " << P.Error;
  if (!P.ok())
    return Name + ": parse error\n";
  TargetDesc TD = targetFor(Regs);
  lowerCalls(*P.M);
  unsigned Removed = eliminateDeadCode(*P.M, TD);
  AllocStats S = allocateModule(*P.M, TD, K);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s %s r%u: fnv=%016" PRIx64
                " spilled=%u edges=%u rounds=%u coalesced=%u dce=%u\n",
                Name.c_str(), allocatorName(K), Regs,
                fnv1a64(printed(*P.M)), S.SpilledTemps, S.InterferenceEdges,
                S.ColoringIterations, S.MovesCoalesced, Removed);
  return Buf;
}

/// Every line, in a fixed order.
std::string allOutputs() {
  std::vector<AllocatorKind> Kinds = AllocatorRegistry::global().kinds();
  std::string Out;
  auto AddAll = [&](const std::string &Name, const std::string &Text,
                    std::initializer_list<unsigned> Limits) {
    for (unsigned Regs : Limits)
      for (AllocatorKind K : Kinds)
        Out += compileLine(Name, Text, K, Regs);
  };

  // The Table 3 modules, options as in bench/table3_compiletime.
  struct Scaled {
    const char *Name;
    ScaledModuleOptions Opts;
  } Scaleds[] = {
      {"cvrin-like", {4, 245, 8, 6, 11}},
      {"twldrv-like", {1, 6218, 48, 10, 22}},
      {"fpppp-like", {2, 3348, 56, 8, 33}},
      {"many-proc", {16, 500, 24, 6, 44}},
  };
  for (const Scaled &S : Scaleds)
    AddAll(S.Name, printed(*buildScaledModule(S.Opts)), {8});
  RandomProgramOptions RO;
  RO.Statements = 300;
  RO.HelperFuncs = 4;
  for (uint64_t S = 1; S <= 8; ++S)
    AddAll("random-" + std::to_string(S), printed(*buildRandomProgram(S, RO)),
           {8, 0});

  for (const WorkloadSpec &W : allWorkloads())
    AddAll(W.Name, printed(*W.Build()), {0});

  check::FuzzOptions FO;
  for (uint64_t S = 1; S <= 50; ++S)
    AddAll("fuzz-" + std::to_string(S),
           printed(*buildRandomProgram(S, FO.Program)), {0, 8, 4});
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(CompileGolden, EveryOutputMatches) {
  std::string Want = readFile(LSRA_COMPILE_GOLDEN);
  ASSERT_FALSE(Want.empty()) << "missing " << LSRA_COMPILE_GOLDEN;
  std::string Got = allOutputs();
  if (Got == Want)
    return;
  std::istringstream W(Want), G(Got);
  std::string WL, GL;
  for (unsigned Line = 1;; ++Line) {
    bool HaveW = static_cast<bool>(std::getline(W, WL));
    bool HaveG = static_cast<bool>(std::getline(G, GL));
    if (!HaveW && !HaveG)
      break;
    if (HaveW != HaveG || WL != GL) {
      ADD_FAILURE() << "outputs diverge at golden line " << Line
                    << "\n  golden:   " << (HaveW ? WL : "<end>")
                    << "\n  compiled: " << (HaveG ? GL : "<end>");
      return;
    }
  }
  ADD_FAILURE() << "outputs differ from the golden file";
}

TEST(CompileGolden, CoversEveryBackendAndPoint) {
  std::istringstream In(readFile(LSRA_COMPILE_GOLDEN));
  unsigned Lines = 0, Coalescing = 0, Removing = 0;
  for (std::string L; std::getline(In, L);) {
    ++Lines;
    Coalescing += L.find(" coalesced=0 ") == std::string::npos;
    Removing += L.find(" dce=0") == std::string::npos;
  }
  // (4 + 8 x 2 code-heavy + 11 corpus + 50 x 3 fuzz points) x every
  // backend.
  EXPECT_EQ(Lines, (20u + 11u + 150u) *
                       AllocatorRegistry::global().kinds().size());
  EXPECT_GT(Coalescing, 0u);
  EXPECT_GT(Removing, 0u);
}

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc == 3 && std::string(argv[1]) == "--write") {
    std::ofstream Out(argv[2]);
    Out << allOutputs();
    return Out ? 0 : 1;
  }
  return RUN_ALL_TESTS();
}
