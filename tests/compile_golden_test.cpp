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
//   - `lsra fuzz` programs 1-50 at register limits 0 (full), 8 and 4;
//   - second-chance binpacking again in each ablation mode (conservative
//     consistency, no early second chance, no move coalescing) on the
//     code-heavy inputs at 8+8 registers and fuzz programs 1-50 at limits
//     8 and 4, so the block-boundary and consistency state is pinned in
//     every mode the ablation benches use;
//   - every backend again with the spill cleanup pass on, on the
//     code-heavy inputs and fuzz programs 1-50 at limits 8 and 4, so the
//     cleanup's rewrite of the allocated code is pinned too.
//
// Each point goes text -> parse -> lowerCalls -> eliminateDeadCode ->
// allocateModule -> print, like compileTextModule, and gives one line: the
// FNV-1a 64 hash of the printed allocated module (fnv=), the same hash of
// its function text alone, from the first `func ` line on (fn=, which a
// change to the memory image's syntax leaves alone), SpilledTemps,
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
#include <string_view>

using namespace lsra;

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

uint64_t fnv1a64(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// \p Text from its first `func ` line on.
std::string_view functionText(const std::string &Text) {
  size_t At = Text.rfind("func ", 0) == 0 ? 0 : Text.find("\nfunc ");
  return std::string_view(Text).substr(
      At == std::string::npos ? Text.size() : At + (At != 0));
}

/// Register limit \p Regs int + \p Regs fp; 0 = the full register file.
TargetDesc targetFor(unsigned Regs) {
  TargetDesc TD = TargetDesc::alphaLike();
  return Regs ? TD.withRegLimit(Regs, Regs) : TD;
}

/// One line for (program text, backend, register limit); \p Mode names
/// non-default options \p AO and is empty for the defaults.
std::string compileLine(const std::string &Name, const std::string &Text,
                        AllocatorKind K, unsigned Regs,
                        const AllocOptions &AO = {}, const char *Mode = "") {
  ParseResult P = parseModule(Text);
  EXPECT_TRUE(P.ok()) << Name << ": " << P.Error;
  if (!P.ok())
    return Name + ": parse error\n";
  TargetDesc TD = targetFor(Regs);
  lowerCalls(*P.M);
  unsigned Removed = eliminateDeadCode(*P.M, TD);
  AllocStats S = allocateModule(*P.M, TD, K, AO);
  std::string Out = printed(*P.M);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%s %s%s r%u: fnv=%016" PRIx64 " fn=%016" PRIx64
                " spilled=%u edges=%u rounds=%u coalesced=%u dce=%u\n",
                Name.c_str(), allocatorName(K), Mode, Regs, fnv1a64(Out),
                fnv1a64(functionText(Out)), S.SpilledTemps,
                S.InterferenceEdges, S.ColoringIterations, S.MovesCoalesced,
                Removed);
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

  // Second-chance binpacking in each ablation mode.
  struct Ablation {
    const char *Mode;
    AllocOptions AO;
  } Ablations[3];
  Ablations[0].Mode = "/conservative";
  Ablations[0].AO.Consistency = AllocOptions::ConsistencyMode::Conservative;
  Ablations[1].Mode = "/no-early-second-chance";
  Ablations[1].AO.EarlySecondChance = false;
  Ablations[2].Mode = "/no-move-coalesce";
  Ablations[2].AO.MoveCoalesce = false;
  for (const Ablation &A : Ablations) {
    auto AddBinpack = [&](const std::string &Name, const std::string &Text,
                          std::initializer_list<unsigned> Limits) {
      for (unsigned Regs : Limits)
        Out += compileLine(Name, Text, AllocatorKind::SecondChanceBinpack,
                           Regs, A.AO, A.Mode);
    };
    for (const Scaled &S : Scaleds)
      AddBinpack(S.Name, printed(*buildScaledModule(S.Opts)), {8});
    for (uint64_t S = 1; S <= 8; ++S)
      AddBinpack("random-" + std::to_string(S),
                 printed(*buildRandomProgram(S, RO)), {8});
    for (uint64_t S = 1; S <= 50; ++S)
      AddBinpack("fuzz-" + std::to_string(S),
                 printed(*buildRandomProgram(S, FO.Program)), {8, 4});
  }

  // Every backend with the spill cleanup pass on.
  AllocOptions Cleanup;
  Cleanup.SpillCleanup = true;
  auto AddCleanup = [&](const std::string &Name, const std::string &Text) {
    for (unsigned Regs : {8u, 4u})
      for (AllocatorKind K : Kinds)
        Out += compileLine(Name, Text, K, Regs, Cleanup, "/cleanup");
  };
  for (const Scaled &S : Scaleds)
    AddCleanup(S.Name, printed(*buildScaledModule(S.Opts)));
  for (uint64_t S = 1; S <= 8; ++S)
    AddCleanup("random-" + std::to_string(S),
               printed(*buildRandomProgram(S, RO)));
  for (uint64_t S = 1; S <= 50; ++S)
    AddCleanup("fuzz-" + std::to_string(S),
               printed(*buildRandomProgram(S, FO.Program)));
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
  // backend, then (4 + 8 code-heavy + 50 x 2 fuzz points) x 3 binpacking
  // ablation modes, then (4 + 8 + 50) x 2 limits x every backend with the
  // spill cleanup on.
  unsigned Backends = AllocatorRegistry::global().kinds().size();
  EXPECT_EQ(Lines, (20u + 11u + 150u) * Backends + (12u + 100u) * 3u +
                       62u * 2u * Backends);
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
