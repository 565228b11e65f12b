//===- target/Target.cpp --------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "target/Target.h"

#include "support/Hash.h"

#include <algorithm>

using namespace lsra;

namespace {

/// Caller-saved register numbers within one class, in allocation preference
/// order: plain scratch registers first ($1-$8, $22-$25), then the
/// convention registers ($0 return, $16-$21 arguments) whose fixed uses are
/// short and block-local after LowerCalls.
constexpr unsigned CallerSavedOrder[] = {1,  2,  3,  4,  5,  6,  7,
                                         8,  22, 23, 24, 25, 0,  16,
                                         17, 18, 19, 20, 21};

/// Callee-saved register numbers within one class ($9-$14), always last in
/// the allocation order.
constexpr unsigned CalleeSavedOrder[] = {9, 10, 11, 12, 13, 14};

} // namespace

TargetDesc TargetDesc::alphaLike() {
  TargetDesc TD;
  for (RegClass RC : {RegClass::Int, RegClass::Float}) {
    unsigned Base = RC == RegClass::Int ? 0 : NumIntPRegs;
    auto &Ord = TD.Order[idx(RC)];
    for (unsigned N : CallerSavedOrder) {
      Ord.push_back(Base + N);
      TD.CallerSavedBits |= uint64_t(1) << (Base + N);
    }
    for (unsigned N : CalleeSavedOrder) {
      Ord.push_back(Base + N);
      TD.CalleeSavedBits |= uint64_t(1) << (Base + N);
    }
    for (unsigned P : Ord)
      TD.AllocatableBits |= uint64_t(1) << P;
  }
  return TD;
}

TargetDesc TargetDesc::withRegLimit(unsigned IntRegs, unsigned FpRegs) const {
  TargetDesc TD = *this;
  unsigned Limits[2] = {IntRegs, FpRegs};
  TD.AllocatableBits = 0;
  for (RegClass RC : {RegClass::Int, RegClass::Float}) {
    auto &Ord = TD.Order[idx(RC)];
    unsigned Limit = Limits[idx(RC)];
    assert(Limit <= Ord.size() && "register limit exceeds machine registers");
    Ord.resize(Limit);
    for (unsigned P : Ord)
      TD.AllocatableBits |= uint64_t(1) << P;
  }
  return TD;
}

bool lsra::parseRegLimit(const std::string &Text, unsigned &Regs,
                         std::string &Err) {
  // Digits only; the value saturates just past the bound, so a long digit
  // string is out of range instead of wrapping into it.
  bool Ok = !Text.empty();
  unsigned N = 0;
  for (char C : Text) {
    if (C < '0' || C > '9') {
      Ok = false;
      break;
    }
    N = std::min(N * 10 + static_cast<unsigned>(C - '0'), MaxRegLimit + 1);
  }
  if (!Ok || (N != 0 && (N < MinRegLimit || N > MaxRegLimit))) {
    Err = "bad register limit '" + Text + "' (want 0 for the full file, or " +
          std::to_string(MinRegLimit) + " to " + std::to_string(MaxRegLimit) +
          ")";
    return false;
  }
  Regs = N;
  return true;
}

TargetDesc lsra::targetForRegLimit(unsigned Regs) {
  assert((Regs == 0 || (Regs >= MinRegLimit && Regs <= MaxRegLimit)) &&
         "register limit not bounded by parseRegLimit");
  TargetDesc TD = TargetDesc::alphaLike();
  return Regs ? TD.withRegLimit(Regs, Regs) : TD;
}

uint64_t TargetDesc::fingerprint() const {
  // The allocation orders and register-set masks.
  WordHash H(0x74640001); // schema tag: "td" v1
  for (RegClass RC : {RegClass::Int, RegClass::Float}) {
    const auto &Ord = Order[idx(RC)];
    H.word(Ord.size());
    for (unsigned P : Ord)
      H.word(P);
  }
  return H.word(AllocatableBits)
      .word(CalleeSavedBits)
      .word(CallerSavedBits)
      .value();
}
