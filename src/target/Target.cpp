//===- target/Target.cpp --------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "target/Target.h"

#include "support/Hash.h"

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
