//===- tests/target_test.cpp - Machine description invariants -------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "target/Target.h"

#include <gtest/gtest.h>

#include <string>

using namespace lsra;

namespace {

TEST(Target, AlphaLikeShape) {
  TargetDesc TD = TargetDesc::alphaLike();
  EXPECT_EQ(TD.numAllocatable(RegClass::Int), 25u);
  EXPECT_EQ(TD.numAllocatable(RegClass::Float), 25u);
  // $9-$14 and $f9-$f14 are callee-saved.
  for (unsigned N = 9; N <= 14; ++N) {
    EXPECT_TRUE(TD.isCalleeSaved(intReg(N)));
    EXPECT_TRUE(TD.isCalleeSaved(fpReg(N)));
  }
  // Return and argument registers are allocatable and caller-saved.
  EXPECT_TRUE(TD.isAllocatable(TargetDesc::intRetReg()));
  EXPECT_TRUE(TD.isCallerSaved(TargetDesc::intRetReg()));
  for (unsigned I = 0; I < 6; ++I) {
    EXPECT_TRUE(TD.isAllocatable(TargetDesc::intArgReg(I)));
    EXPECT_TRUE(TD.isCallerSaved(TargetDesc::intArgReg(I)));
    EXPECT_TRUE(TD.isCallerSaved(TargetDesc::fpArgReg(I)));
  }
  // Reserved registers ($15, $26-$31) are not allocatable.
  EXPECT_FALSE(TD.isAllocatable(intReg(15)));
  for (unsigned N = 26; N <= 31; ++N)
    EXPECT_FALSE(TD.isAllocatable(intReg(N)));
}

TEST(Target, CalleeAndCallerSavedPartitionAllocatable) {
  TargetDesc TD = TargetDesc::alphaLike();
  for (unsigned P = 0; P < NumPRegs; ++P) {
    if (!TD.isAllocatable(P))
      continue;
    EXPECT_NE(TD.isCalleeSaved(P), TD.isCallerSaved(P))
        << "register " << P << " must be exactly one of the two";
  }
}

TEST(Target, AllocOrderPrefersCallerSavedScratch) {
  TargetDesc TD = TargetDesc::alphaLike();
  const auto &Order = TD.allocOrder(RegClass::Int);
  // The first registers in preference order are caller-saved scratch; the
  // last six are the callee-saved registers.
  EXPECT_TRUE(TD.isCallerSaved(Order.front()));
  for (unsigned I = Order.size() - 6; I < Order.size(); ++I)
    EXPECT_TRUE(TD.isCalleeSaved(Order[I]));
}

TEST(Target, RegLimitRestrictsAllocatable) {
  TargetDesc TD = TargetDesc::alphaLike().withRegLimit(4, 3);
  EXPECT_EQ(TD.numAllocatable(RegClass::Int), 4u);
  EXPECT_EQ(TD.numAllocatable(RegClass::Float), 3u);
  // Clobber semantics unchanged: calls still clobber the full
  // caller-saved set.
  EXPECT_EQ(TD.callClobberMask(),
            TargetDesc::alphaLike().callClobberMask());
}

// Register limits from flags and the wire: digits only, 0 (the full file)
// or 3..25 per class; everything else is an error, never a target.
TEST(Target, ParseRegLimitBoundsOutsideInput) {
  for (const char *Ok : {"0", "3", "8", "25", "08"}) {
    unsigned Regs = 99;
    std::string Err;
    EXPECT_TRUE(parseRegLimit(Ok, Regs, Err)) << Ok << ": " << Err;
    EXPECT_EQ(Regs, static_cast<unsigned>(std::stoul(Ok)));
  }
  for (const char *Bad : {"", "1", "2", "26", "4294967295", "4294967299",
                          "99999999999999999999", "-1", "+3", "zz", "3x",
                          " 3"}) {
    unsigned Regs = 7;
    std::string Err;
    EXPECT_FALSE(parseRegLimit(Bad, Regs, Err)) << Bad;
    EXPECT_NE(Err.find("bad register limit"), std::string::npos) << Err;
    EXPECT_EQ(Regs, 7u) << Bad;
  }
  TargetDesc Full = targetForRegLimit(0);
  EXPECT_EQ(Full.fingerprint(), TargetDesc::alphaLike().fingerprint());
  for (unsigned N : {MinRegLimit, MaxRegLimit}) {
    TargetDesc TD = targetForRegLimit(N);
    EXPECT_EQ(TD.numAllocatable(RegClass::Int), N);
    EXPECT_EQ(TD.numAllocatable(RegClass::Float), N);
  }
}

TEST(Target, CallImplicitOperands) {
  Instr Call(Opcode::Call, Operand::func(0));
  Call.CallIntArgs = 2;
  Call.CallFpArgs = 1;
  Call.CallRet = CallRetKind::Int;

  std::vector<unsigned> Uses, Defs;
  forEachUsedReg(Call, [&](const Operand &Op) { Uses.push_back(Op.pregId()); });
  forEachDefinedReg(Call,
                    [&](const Operand &Op) { Defs.push_back(Op.pregId()); });
  EXPECT_EQ(Uses, (std::vector<unsigned>{TargetDesc::intArgReg(0),
                                         TargetDesc::intArgReg(1),
                                         TargetDesc::fpArgReg(0)}));
  EXPECT_EQ(Defs, std::vector<unsigned>{TargetDesc::intRetReg()});

  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Clobbers = 0;
  forEachClobberedReg(Call, TD, [&](unsigned P) {
    EXPECT_TRUE(TD.isCallerSaved(P));
    ++Clobbers;
  });
  EXPECT_EQ(Clobbers, 38u); // 19 caller-saved per class
}

TEST(Target, NonCallsHaveNoImplicitOperands) {
  Instr Add(Opcode::Add, Operand::vreg(0), Operand::vreg(1), Operand::imm(3));
  unsigned Uses = 0, Defs = 0;
  forEachUsedReg(Add, [&](const Operand &) { ++Uses; });
  forEachDefinedReg(Add, [&](const Operand &) { ++Defs; });
  EXPECT_EQ(Uses, 1u); // the immediate is skipped
  EXPECT_EQ(Defs, 1u);
  TargetDesc TD = TargetDesc::alphaLike();
  unsigned Clobbers = 0;
  forEachClobberedReg(Add, TD, [&](unsigned) { ++Clobbers; });
  EXPECT_EQ(Clobbers, 0u);
}

} // namespace
