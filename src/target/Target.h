//===- target/Target.h - Machine description -------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Alpha-like machine description the paper's experiments assume: two
/// register files of 32 registers, a caller-saved scratch set, the six
/// callee-saved registers $9-$14 (and $f9-$f14), and the standard calling
/// convention ($16-$21 argument registers, $0/$f0 return registers).
/// Registers $15 and $26-$31 (gp, ra, at, sp, ...) are reserved and never
/// allocated, leaving 25 allocatable registers per class.
///
/// Also home to the implicit-operand expansion for calls: argument-register
/// uses, the return-register definition, and the caller-saved clobber set
/// are not stored as explicit operands but derived from the Instr's call
/// metadata by forEachUsedReg / forEachDefinedReg / forEachClobberedReg.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_TARGET_TARGET_H
#define LSRA_TARGET_TARGET_H

#include "ir/Instr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lsra {

class TargetDesc {
public:
  /// The full Alpha-like machine: 25 allocatable registers per class.
  static TargetDesc alphaLike();

  /// A copy restricted to the first \p IntRegs / \p FpRegs registers of the
  /// allocation orders. Used to raise register pressure in experiments
  /// (§3's varying-register-count runs). Calling-convention semantics are
  /// unchanged: calls still clobber the full caller-saved set.
  TargetDesc withRegLimit(unsigned IntRegs, unsigned FpRegs) const;

  unsigned numAllocatable(RegClass RC) const {
    return static_cast<unsigned>(Order[idx(RC)].size());
  }
  bool isAllocatable(unsigned P) const {
    assert(P < NumPRegs && "bad physical register id");
    return (AllocatableBits >> P) & 1;
  }
  bool isCalleeSaved(unsigned P) const {
    assert(P < NumPRegs && "bad physical register id");
    return (CalleeSavedBits >> P) & 1;
  }
  bool isCallerSaved(unsigned P) const {
    assert(P < NumPRegs && "bad physical register id");
    return (CallerSavedBits >> P) & 1;
  }

  /// Allocation preference order for \p RC: caller-saved scratch registers
  /// first, the six callee-saved registers last (using one costs a
  /// save/restore pair in the prologue/epilogue).
  const std::vector<unsigned> &allocOrder(RegClass RC) const {
    return Order[idx(RC)];
  }

  /// Bit mask (over the 64-register id space) of registers a call clobbers.
  uint64_t callClobberMask() const { return CallerSavedBits; }
  /// Bit mask of the callee-saved registers.
  uint64_t calleeSavedMask() const { return CalleeSavedBits; }

  /// Stable 64-bit fingerprint over everything that can change allocation:
  /// both allocation orders and the three register-set masks. Targets with
  /// different register limits fingerprint differently, so they never share
  /// compile-cache entries.
  uint64_t fingerprint() const;

  // --- Calling convention (fixed, independent of register limits) ---------

  static constexpr unsigned NumArgRegs = 6;

  static unsigned intRetReg() { return intReg(0); }
  static unsigned fpRetReg() { return fpReg(0); }
  static unsigned retReg(RegClass RC) {
    return RC == RegClass::Int ? intRetReg() : fpRetReg();
  }
  static unsigned intArgReg(unsigned I) {
    assert(I < NumArgRegs && "argument register index out of range");
    return intReg(16 + I);
  }
  static unsigned fpArgReg(unsigned I) {
    assert(I < NumArgRegs && "argument register index out of range");
    return fpReg(16 + I);
  }

private:
  static unsigned idx(RegClass RC) { return static_cast<unsigned>(RC); }

  std::vector<unsigned> Order[2]; ///< allocation order per register class
  uint64_t AllocatableBits = 0;
  uint64_t CalleeSavedBits = 0;
  uint64_t CallerSavedBits = 0;
};

/// Per-class register limits accepted from outside the library (`--regs=`
/// flags and the wire's `regs=` field): 0 selects the full file, anything
/// else must lie in [MinRegLimit, MaxRegLimit]. Three is the smallest file
/// every backend allocates in; 25 is alphaLike()'s count per class.
constexpr unsigned MinRegLimit = 3;
constexpr unsigned MaxRegLimit = 25;

/// Parse \p Text (decimal digits only) as a register limit and bound it.
/// False, with \p Err naming the value and the accepted range, otherwise.
bool parseRegLimit(const std::string &Text, unsigned &Regs, std::string &Err);

/// The target a limit accepted by parseRegLimit selects: alphaLike() for 0,
/// alphaLike().withRegLimit(Regs, Regs) otherwise.
TargetDesc targetForRegLimit(unsigned Regs);

/// Invoke \p F on every register operand read by \p I, including the
/// implicit argument-register uses of a call (integer arguments first, then
/// floating-point, each in index order). Immediates, labels, slots, and
/// function references are skipped.
template <typename Fn> void forEachUsedReg(const Instr &I, Fn &&F) {
  const OpcodeInfo &Info = I.info();
  for (unsigned S = Info.NumDefs, E = Info.NumDefs + Info.NumUses; S < E; ++S) {
    const Operand &Op = I.op(S);
    if (Op.isReg())
      F(Op);
  }
  if (I.isCall()) {
    for (unsigned A = 0; A < I.CallIntArgs; ++A)
      F(Operand::preg(TargetDesc::intArgReg(A)));
    for (unsigned A = 0; A < I.CallFpArgs; ++A)
      F(Operand::preg(TargetDesc::fpArgReg(A)));
  }
}

/// Invoke \p F on every register operand written by \p I, including the
/// implicit return-register definition of a call.
template <typename Fn> void forEachDefinedReg(const Instr &I, Fn &&F) {
  const OpcodeInfo &Info = I.info();
  for (unsigned S = 0; S < Info.NumDefs; ++S) {
    const Operand &Op = I.op(S);
    if (Op.isReg())
      F(Op);
  }
  if (I.isCall()) {
    if (I.CallRet == CallRetKind::Int)
      F(Operand::preg(TargetDesc::intRetReg()));
    else if (I.CallRet == CallRetKind::Float)
      F(Operand::preg(TargetDesc::fpRetReg()));
  }
}

/// Invoke \p F on every physical register id \p I clobbers (beyond its
/// explicit and implicit defs): the full caller-saved set for calls,
/// nothing for any other instruction. Iterates in ascending register id.
template <typename Fn>
void forEachClobberedReg(const Instr &I, const TargetDesc &TD, Fn &&F) {
  if (!I.isCall())
    return;
  uint64_t Mask = TD.callClobberMask();
  while (Mask) {
    unsigned P = static_cast<unsigned>(__builtin_ctzll(Mask));
    Mask &= Mask - 1;
    F(P);
  }
}

} // namespace lsra

#endif // LSRA_TARGET_TARGET_H
