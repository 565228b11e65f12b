//===- tests/verifier_golden_test.cpp - Pinned verifier verdicts ----------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the allocation verifier's full output, VerifyAllocResult::str(), for
// a fixed set of (original, allocated) pairs:
//
//   - every point of the `lsra fuzz` default grid (every registered
//     allocator x register limits 0/8/4 x spill cleanup off/on) for random
//     programs 1-10;
//   - the tests/corpus reproducers at their recorded configuration;
//   - a mutation sweep over all of those allocations: delete one tagged
//     spill instruction, retarget one use register to the next allocatable
//     register of its class, retarget one slot load/store to the next slot
//     of its class, or retarget one resolution move's source. A few sites
//     of each kind are picked per allocation, evenly spaced over the sites
//     the allocation has.
//
// Every verdict (accepting or rejecting, with error kind, pinpointing and
// classification) must match tests/golden/verifier_verdicts.txt byte for
// byte. The file is regenerated only when a verdict change is intended:
//
//   verifier_golden_test --write tests/golden/verifier_verdicts.txt
//
//===----------------------------------------------------------------------===//

#include "check/Clone.h"
#include "check/Verifier.h"
#include "driver/Pipeline.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/DCE.h"
#include "regalloc/Registry.h"
#include "target/LowerCalls.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lsra;
using namespace lsra::check;

namespace {

namespace fs = std::filesystem;

/// Mutation sites of each kind taken per allocation.
constexpr unsigned SitesPerKind = 2;

TargetDesc targetFor(unsigned Regs) {
  TargetDesc TD = TargetDesc::alphaLike();
  return Regs ? TD.withRegLimit(Regs, Regs) : TD;
}

struct Allocation {
  std::string Id;
  TargetDesc TD = TargetDesc::alphaLike();
  std::unique_ptr<Module> Orig;  ///< allocator input (lowered, DCE'd)
  std::unique_ptr<Module> Alloc; ///< pipeline output
};

/// The runOracle pipeline up to the verifier.
Allocation allocate(std::string Id, const std::string &Text, AllocatorKind K,
                    unsigned Regs, bool Cleanup) {
  Allocation A;
  A.Id = std::move(Id);
  A.TD = targetFor(Regs);
  ParseResult P = parseModule(Text);
  EXPECT_TRUE(P.ok()) << A.Id << ": " << P.Error;
  if (!P.ok())
    return A;
  A.Orig = std::move(P.M);
  lowerCalls(*A.Orig);
  eliminateDeadCode(*A.Orig, A.TD);
  A.Alloc = cloneModule(*A.Orig);
  AllocOptions AO;
  AO.SpillCleanup = Cleanup;
  allocateModule(*A.Alloc, A.TD, K, AO);
  return A;
}

/// The next register after \p P (wrapping) of the same class that \p TD
/// allocates; \p P itself when there is none.
unsigned nextAllocatable(unsigned P, const TargetDesc &TD) {
  for (unsigned I = 1; I < NumPRegs; ++I) {
    unsigned Q = (P + I) % NumPRegs;
    if (pregClass(Q) == pregClass(P) && TD.isAllocatable(Q))
      return Q;
  }
  return P;
}

/// The next slot after \p S (wrapping) of the same class in \p F.
unsigned nextSlot(unsigned S, const Function &F) {
  for (unsigned I = 1; I < F.numSlots(); ++I) {
    unsigned T = (S + I) % F.numSlots();
    if (F.slotClass(T) == F.slotClass(S))
      return T;
  }
  return S;
}

/// One corruption of one allocated instruction.
struct Site {
  enum Kind { DelSpill, UseReg, Slot, ResolveMove, NumKinds };
  Kind K;
  unsigned Func, Block, Instr, Op = 0;
};

const char *siteKindName(Site::Kind K) {
  switch (K) {
  case Site::DelSpill:
    return "del-spill";
  case Site::UseReg:
    return "use-reg";
  case Site::Slot:
    return "slot";
  case Site::ResolveMove:
    return "resolve-move";
  default:
    return "?";
  }
}

std::vector<Site> collectSites(const Module &M, const TargetDesc &TD) {
  std::vector<Site> Sites;
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    const Function &Fn = M.function(F);
    for (unsigned B = 0; B < Fn.numBlocks(); ++B) {
      const auto &Instrs = Fn.block(B).instrs();
      for (unsigned I = 0; I < Instrs.size(); ++I) {
        const Instr &AI = Instrs[I];
        if (isSpillCode(AI.Spill))
          Sites.push_back({Site::DelSpill, F, B, I});
        if (AI.Spill == SpillKind::ResolveMove &&
            nextAllocatable(AI.op(1).pregId(), TD) != AI.op(1).pregId())
          Sites.push_back({Site::ResolveMove, F, B, I, 1});
        bool SlotOp = AI.opcode() == Opcode::LdSlot ||
                      AI.opcode() == Opcode::FLdSlot ||
                      AI.opcode() == Opcode::StSlot ||
                      AI.opcode() == Opcode::FStSlot;
        if (SlotOp && AI.op(1).isSlot() &&
            nextSlot(AI.op(1).slotId(), Fn) != AI.op(1).slotId())
          Sites.push_back({Site::Slot, F, B, I, 1});
        if (AI.Spill != SpillKind::None)
          continue;
        unsigned D = AI.numDefSlots();
        for (unsigned U = 0; U < AI.numUseSlots(); ++U) {
          const Operand &O = AI.op(D + U);
          if (O.isPReg() && nextAllocatable(O.pregId(), TD) != O.pregId())
            Sites.push_back({Site::UseReg, F, B, I, D + U});
        }
      }
    }
  }
  return Sites;
}

std::string siteId(const Site &S, const Module &M) {
  std::ostringstream OS;
  OS << siteKindName(S.K) << " " << M.function(S.Func).name() << ":b"
     << S.Block << "[" << S.Instr << "]";
  if (S.K == Site::UseReg)
    OS << ".op" << S.Op;
  return OS.str();
}

void applySite(const Site &S, Module &M, const TargetDesc &TD) {
  Function &F = M.function(S.Func);
  Block &B = F.block(S.Block);
  if (S.K == Site::DelSpill) {
    B.eraseInstr(S.Instr);
    return;
  }
  Operand &O = B.instrs()[S.Instr].op(S.Op);
  if (S.K == Site::Slot)
    O = Operand::slot(nextSlot(O.slotId(), F));
  else
    O = Operand::preg(nextAllocatable(O.pregId(), TD));
}

void appendVerdict(std::ostream &OS, const std::string &Id,
                   const VerifyAllocResult &R) {
  OS << Id << ": ";
  if (R.ok()) {
    OS << "ok\n";
    return;
  }
  OS << R.Errors.size() << (R.Errors.size() == 1 ? " error\n" : " errors\n");
  std::istringstream Lines(R.str());
  for (std::string L; std::getline(Lines, L);)
    OS << "  " << L << "\n";
}

/// The allocation's own verdict, then its mutation sweep.
void appendAllocation(std::ostream &OS, const Allocation &A) {
  if (!A.Orig)
    return;
  appendVerdict(OS, A.Id, verifyAllocation(*A.Orig, *A.Alloc, A.TD));
  std::vector<Site> Sites = collectSites(*A.Alloc, A.TD);
  for (unsigned K = 0; K < Site::NumKinds; ++K) {
    std::vector<Site> OfKind;
    for (const Site &S : Sites)
      if (S.K == K)
        OfKind.push_back(S);
    unsigned Take = std::min<unsigned>(SitesPerKind, OfKind.size());
    for (unsigned J = 0; J < Take; ++J) {
      const Site &S = OfKind[(2 * J + 1) * OfKind.size() / (2 * Take)];
      std::unique_ptr<Module> M = cloneModule(*A.Alloc);
      applySite(S, *M, A.TD);
      appendVerdict(OS, A.Id + " " + siteId(S, *A.Alloc),
                    verifyAllocation(*A.Orig, *M, A.TD));
    }
  }
}

/// "; oracle: allocator=NAME regs=N cleanup=0|1 ..." reproducer headers.
bool parseOracleHeader(const std::string &Text, AllocatorKind &K,
                       unsigned &Regs, bool &Cleanup) {
  std::string Line = Text.substr(0, Text.find('\n'));
  if (Line.rfind("; oracle:", 0) != 0)
    return false;
  std::istringstream IS(Line.substr(9));
  bool HaveAllocator = false;
  for (std::string Tok; IS >> Tok;) {
    auto Eq = Tok.find('=');
    if (Eq == std::string::npos)
      continue;
    std::string Key = Tok.substr(0, Eq), Val = Tok.substr(Eq + 1);
    if (Key == "allocator")
      HaveAllocator = parseAllocatorName(Val, K);
    else if (Key == "regs")
      Regs = static_cast<unsigned>(std::stoul(Val));
    else if (Key == "cleanup")
      Cleanup = Val == "1";
  }
  return HaveAllocator;
}

/// Every verdict, in a fixed order.
std::string allVerdicts() {
  std::ostringstream OS;
  std::vector<AllocatorKind> Kinds = AllocatorRegistry::global().kinds();
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::unique_ptr<Module> M = buildRandomProgram(Seed);
    std::ostringstream Text;
    printModule(Text, *M);
    for (unsigned Regs : {0u, 8u, 4u})
      for (AllocatorKind K : Kinds)
        for (bool Cleanup : {false, true}) {
          std::ostringstream Id;
          Id << "p" << Seed << " " << allocatorName(K) << " r" << Regs
             << " c" << Cleanup;
          appendAllocation(OS,
                           allocate(Id.str(), Text.str(), K, Regs, Cleanup));
        }
  }

  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(LSRA_CORPUS_DIR))
    if (E.path().extension() == ".ir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  for (const fs::path &F : Files) {
    std::ifstream In(F);
    std::stringstream SS;
    SS << In.rdbuf();
    AllocatorKind K = AllocatorKind::SecondChanceBinpack;
    unsigned Regs = 0;
    bool Cleanup = false;
    EXPECT_TRUE(parseOracleHeader(SS.str(), K, Regs, Cleanup))
        << F.filename() << ": missing '; oracle:' header";
    appendAllocation(OS, allocate(F.filename().string(), SS.str(), K, Regs,
                                  Cleanup));
  }
  return OS.str();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(VerifierGolden, EveryVerdictMatches) {
  std::string Want = readFile(LSRA_VERIFIER_GOLDEN);
  ASSERT_FALSE(Want.empty()) << "missing " << LSRA_VERIFIER_GOLDEN;
  std::string Got = allVerdicts();
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
      ADD_FAILURE() << "verdicts diverge at golden line " << Line
                    << "\n  golden:   " << (HaveW ? WL : "<end>")
                    << "\n  verifier: " << (HaveG ? GL : "<end>");
      return;
    }
  }
  ADD_FAILURE() << "verdicts differ from the golden file";
}

TEST(VerifierGolden, SweepRejectsSeveralHundredMutations) {
  std::istringstream In(readFile(LSRA_VERIFIER_GOLDEN));
  unsigned Cases = 0, Rejected = 0;
  for (std::string L; std::getline(In, L);) {
    if (L.empty() || L[0] == ' ')
      continue;
    ++Cases;
    Rejected += L.compare(L.size() - 4, 4, ": ok") != 0;
  }
  EXPECT_GE(Cases, 1000u);
  EXPECT_GE(Rejected, 300u);
}

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc == 3 && std::string(argv[1]) == "--write") {
    std::ofstream Out(argv[2]);
    Out << allVerdicts();
    return Out ? 0 : 1;
  }
  return RUN_ALL_TESTS();
}
