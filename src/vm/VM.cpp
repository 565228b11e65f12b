//===- vm/VM.cpp ----------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/Counters.h"
#include "obs/Trace.h"

#include <cstring>

using namespace lsra;

namespace {

uint64_t bitsOfDouble(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof(B));
  return B;
}

double doubleOfBits(uint64_t B) {
  double D;
  std::memcpy(&D, &B, sizeof(D));
  return D;
}

constexpr uint64_t PoisonPattern = 0xDEADBEEFDEADBEEFull;

/// Cycle estimate per opcode: a crude but deterministic latency model in
/// the spirit of an in-order Alpha (memory 3, mul 8, div 30, fdiv 20,
/// call overhead 4, everything else 1).
unsigned cycleCost(Opcode Op) {
  switch (Op) {
  case Opcode::Mul:
    return 8;
  case Opcode::Div:
  case Opcode::Rem:
    return 30;
  case Opcode::FMul:
    return 4;
  case Opcode::FDiv:
    return 20;
  case Opcode::Ld:
  case Opcode::St:
  case Opcode::FLd:
  case Opcode::FSt:
  case Opcode::LdSlot:
  case Opcode::StSlot:
  case Opcode::FLdSlot:
  case Opcode::FStSlot:
    return 3;
  case Opcode::Call:
    return 4;
  default:
    return 1;
  }
}

struct Frame {
  const Function *F = nullptr;
  unsigned Block = 0;
  unsigned InstrIdx = 0;
  std::vector<uint64_t> VRegs;
  std::vector<uint64_t> Slots;
  // Support for executing pre-LowerCalls code.
  std::vector<uint64_t> PendingIntArgs;
  std::vector<uint64_t> PendingFpArgs;
  // Callee-saved contract checking.
  std::array<uint64_t, NumPRegs> EntryRegs{};
};

class Interp {
public:
  Interp(const Module &M, const TargetDesc &TD, VM::Options Opts)
      : M(M), TD(TD), Opts(Opts) {}

  RunResult run(const std::string &EntryName);

private:
  const Module &M;
  const TargetDesc &TD;
  VM::Options Opts;

  std::vector<uint64_t> Mem;
  std::array<uint64_t, NumPRegs> PRegs{};
  std::vector<Frame> Stack;
  RunResult Result;
  uint64_t PendingRet = 0;

  bool fail(const std::string &Msg) {
    Result.Ok = false;
    Result.Error = Msg;
    return false;
  }

  uint64_t read(const Frame &Fr, const Operand &Op) const {
    switch (Op.kind()) {
    case Operand::Kind::VReg:
      return Fr.VRegs[Op.vregId()];
    case Operand::Kind::PReg:
      return PRegs[Op.pregId()];
    case Operand::Kind::Imm:
      return static_cast<uint64_t>(Op.immValue());
    case Operand::Kind::FImm:
      return bitsOfDouble(Op.fimmValue());
    default:
      assert(false && "operand is not a value");
      return 0;
    }
  }

  void write(Frame &Fr, const Operand &Op, uint64_t V) {
    if (Op.isVReg())
      Fr.VRegs[Op.vregId()] = V;
    else
      PRegs[Op.pregId()] = V;
  }

  void pushFrame(const Function &F) {
    Frame Fr;
    Fr.F = &F;
    Fr.VRegs.assign(F.numVRegs(), PoisonPattern);
    Fr.Slots.assign(F.numSlots(), PoisonPattern);
    Fr.EntryRegs = PRegs;
    Stack.push_back(std::move(Fr));
  }

  void poisonCallerSaved(uint64_t PreserveMask) {
    if (!Opts.PoisonCallerSaved)
      return;
    uint64_t Mask = TD.callClobberMask() & ~PreserveMask;
    while (Mask) {
      unsigned P = static_cast<unsigned>(__builtin_ctzll(Mask));
      Mask &= Mask - 1;
      PRegs[P] = PoisonPattern;
    }
  }

  /// Execute one instruction; returns false on termination or error.
  bool step();
};

bool Interp::step() {
  Frame &Fr = Stack.back();
  const Function &F = *Fr.F;
  const Block &B = F.block(Fr.Block);
  if (Fr.InstrIdx >= B.size())
    return fail("fell off the end of bb" + std::to_string(Fr.Block) + " in " +
                F.name());
  const Instr &I = B.instrs()[Fr.InstrIdx];

  if (Result.Stats.Total >= Opts.MaxInstrs)
    return fail("instruction budget exceeded");
  ++Result.Stats.Total;
  Result.Stats.Cycles += cycleCost(I.opcode());
  ++Result.Stats.ByKind[static_cast<unsigned>(I.Spill)];

  ++Fr.InstrIdx;

  auto IntBin = [&](auto Fn) {
    int64_t A = static_cast<int64_t>(read(Fr, I.op(1)));
    int64_t Bv = static_cast<int64_t>(read(Fr, I.op(2)));
    write(Fr, I.op(0), static_cast<uint64_t>(Fn(A, Bv)));
    return true;
  };
  auto FpBin = [&](auto Fn) {
    double A = doubleOfBits(read(Fr, I.op(1)));
    double Bv = doubleOfBits(read(Fr, I.op(2)));
    write(Fr, I.op(0), bitsOfDouble(Fn(A, Bv)));
    return true;
  };
  auto FpCmp = [&](auto Fn) {
    double A = doubleOfBits(read(Fr, I.op(1)));
    double Bv = doubleOfBits(read(Fr, I.op(2)));
    write(Fr, I.op(0), Fn(A, Bv) ? 1 : 0);
    return true;
  };

  switch (I.opcode()) {
  // Two's-complement wrap-around, computed in uint64_t: signed overflow
  // is undefined behaviour in C++.
  case Opcode::Add:
    return IntBin([](int64_t A, int64_t B2) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) + uint64_t(B2));
    });
  case Opcode::Sub:
    return IntBin([](int64_t A, int64_t B2) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) - uint64_t(B2));
    });
  case Opcode::Mul:
    return IntBin([](int64_t A, int64_t B2) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) * uint64_t(B2));
    });
  case Opcode::Div: {
    int64_t D = static_cast<int64_t>(read(Fr, I.op(2)));
    if (D == 0)
      return fail("division by zero in " + F.name());
    return IntBin([](int64_t A, int64_t B2) {
      if (A == INT64_MIN && B2 == -1)
        return INT64_MIN; // avoid UB on overflow
      return A / B2;
    });
  }
  case Opcode::Rem: {
    int64_t D = static_cast<int64_t>(read(Fr, I.op(2)));
    if (D == 0)
      return fail("remainder by zero in " + F.name());
    return IntBin([](int64_t A, int64_t B2) {
      if (A == INT64_MIN && B2 == -1)
        return int64_t(0);
      return A % B2;
    });
  }
  case Opcode::And:
    return IntBin([](int64_t A, int64_t B2) { return A & B2; });
  case Opcode::Or:
    return IntBin([](int64_t A, int64_t B2) { return A | B2; });
  case Opcode::Xor:
    return IntBin([](int64_t A, int64_t B2) { return A ^ B2; });
  case Opcode::Shl:
    return IntBin([](int64_t A, int64_t B2) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) << (B2 & 63));
    });
  case Opcode::Shr:
    return IntBin([](int64_t A, int64_t B2) {
      return static_cast<int64_t>(static_cast<uint64_t>(A) >> (B2 & 63));
    });
  case Opcode::CmpEq:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A == B2); });
  case Opcode::CmpNe:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A != B2); });
  case Opcode::CmpLt:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A < B2); });
  case Opcode::CmpLe:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A <= B2); });
  case Opcode::CmpGt:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A > B2); });
  case Opcode::CmpGe:
    return IntBin([](int64_t A, int64_t B2) { return int64_t(A >= B2); });
  case Opcode::Neg:
    write(Fr, I.op(0), 0 - read(Fr, I.op(1))); // wraps, like Sub
    return true;
  case Opcode::Not:
    write(Fr, I.op(0), ~read(Fr, I.op(1)));
    return true;
  case Opcode::FAdd:
    return FpBin([](double A, double B2) { return A + B2; });
  case Opcode::FSub:
    return FpBin([](double A, double B2) { return A - B2; });
  case Opcode::FMul:
    return FpBin([](double A, double B2) { return A * B2; });
  case Opcode::FDiv:
    return FpBin([](double A, double B2) { return A / B2; });
  case Opcode::FNeg:
    write(Fr, I.op(0), bitsOfDouble(-doubleOfBits(read(Fr, I.op(1)))));
    return true;
  case Opcode::FCmpEq:
    return FpCmp([](double A, double B2) { return A == B2; });
  case Opcode::FCmpLt:
    return FpCmp([](double A, double B2) { return A < B2; });
  case Opcode::FCmpLe:
    return FpCmp([](double A, double B2) { return A <= B2; });
  case Opcode::ItoF:
    write(Fr, I.op(0),
          bitsOfDouble(
              static_cast<double>(static_cast<int64_t>(read(Fr, I.op(1))))));
    return true;
  case Opcode::FtoI: {
    // Defined for every input: NaN and out-of-range convert to 0 /
    // saturated values instead of invoking UB.
    double D = doubleOfBits(read(Fr, I.op(1)));
    int64_t Res;
    if (D != D)
      Res = 0;
    else if (D >= 9.2e18)
      Res = INT64_MAX;
    else if (D <= -9.2e18)
      Res = INT64_MIN;
    else
      Res = static_cast<int64_t>(D);
    write(Fr, I.op(0), static_cast<uint64_t>(Res));
    return true;
  }
  case Opcode::Mov:
  case Opcode::FMov:
  case Opcode::MovI:
  case Opcode::MovF:
    write(Fr, I.op(0), read(Fr, I.op(1)));
    return true;
  case Opcode::Ld:
  case Opcode::FLd: {
    uint64_t Addr = read(Fr, I.op(1)) + static_cast<uint64_t>(I.op(2).immValue());
    if (Addr >= Mem.size())
      return fail("load out of bounds in " + F.name());
    write(Fr, I.op(0), Mem[Addr]);
    return true;
  }
  case Opcode::St:
  case Opcode::FSt: {
    uint64_t Addr = read(Fr, I.op(1)) + static_cast<uint64_t>(I.op(2).immValue());
    if (Addr >= Mem.size())
      return fail("store out of bounds in " + F.name());
    Mem[Addr] = read(Fr, I.op(0));
    return true;
  }
  case Opcode::LdSlot:
  case Opcode::FLdSlot:
    write(Fr, I.op(0), Fr.Slots[I.op(1).slotId()]);
    return true;
  case Opcode::StSlot:
  case Opcode::FStSlot:
    Fr.Slots[I.op(1).slotId()] = read(Fr, I.op(0));
    return true;
  case Opcode::Br:
    Fr.Block = I.op(0).labelBlock();
    Fr.InstrIdx = 0;
    return true;
  case Opcode::CBr: {
    bool Taken = read(Fr, I.op(0)) != 0;
    Fr.Block = (Taken ? I.op(1) : I.op(2)).labelBlock();
    Fr.InstrIdx = 0;
    return true;
  }
  case Opcode::Ret: {
    uint64_t RetVal = 0;
    if (!I.op(0).isNone())
      RetVal = read(Fr, I.op(0));
    else if (F.RetKind != CallRetKind::None)
      RetVal = PRegs[TargetDesc::retReg(
          F.RetKind == CallRetKind::Float ? RegClass::Float : RegClass::Int)];
    if (Opts.CheckCalleeSaved) {
      uint64_t Mask = TD.calleeSavedMask();
      while (Mask) {
        unsigned P = static_cast<unsigned>(__builtin_ctzll(Mask));
        Mask &= Mask - 1;
        if (PRegs[P] != Fr.EntryRegs[P])
          return fail("callee-saved register not preserved by " + F.name());
      }
    }
    CallRetKind RK = F.RetKind;
    Stack.pop_back();
    if (Stack.empty()) {
      Result.Ok = true;
      Result.ReturnValue = static_cast<int64_t>(RetVal);
      return false;
    }
    // Deliver the return value through the convention register so lowered
    // callers read it there, and through PendingRet for unlowered callers.
    if (RK == CallRetKind::Int)
      PRegs[TargetDesc::intRetReg()] = RetVal;
    else if (RK == CallRetKind::Float)
      PRegs[TargetDesc::fpRetReg()] = RetVal;
    PendingRet = RetVal;
    uint64_t Preserve = 0;
    if (RK == CallRetKind::Int)
      Preserve |= uint64_t(1) << TargetDesc::intRetReg();
    else if (RK == CallRetKind::Float)
      Preserve |= uint64_t(1) << TargetDesc::fpRetReg();
    poisonCallerSaved(Preserve);
    return true;
  }
  case Opcode::Call: {
    if (Stack.size() >= Opts.MaxCallDepth)
      return fail("call depth exceeded in " + F.name());
    const Function &Callee = M.function(I.op(0).funcId());
    // Gather argument values. An unlowered caller passed them through the
    // pending buffers; a lowered caller placed them in argument registers.
    std::vector<uint64_t> IArgs, FArgs;
    if (!Fr.PendingIntArgs.empty() || !Fr.PendingFpArgs.empty()) {
      IArgs = Fr.PendingIntArgs;
      FArgs = Fr.PendingFpArgs;
      Fr.PendingIntArgs.clear();
      Fr.PendingFpArgs.clear();
    } else {
      for (unsigned A = 0; A < I.CallIntArgs; ++A)
        IArgs.push_back(PRegs[TargetDesc::intArgReg(A)]);
      for (unsigned A = 0; A < I.CallFpArgs; ++A)
        FArgs.push_back(PRegs[TargetDesc::fpArgReg(A)]);
    }
    // Place them where the callee expects them.
    uint64_t Preserve = 0;
    for (unsigned A = 0; A < IArgs.size() && A < 6; ++A) {
      PRegs[TargetDesc::intArgReg(A)] = IArgs[A];
      Preserve |= uint64_t(1) << TargetDesc::intArgReg(A);
    }
    for (unsigned A = 0; A < FArgs.size() && A < 6; ++A) {
      PRegs[TargetDesc::fpArgReg(A)] = FArgs[A];
      Preserve |= uint64_t(1) << TargetDesc::fpArgReg(A);
    }
    poisonCallerSaved(Preserve);
    pushFrame(Callee);
    Frame &NewFr = Stack.back();
    if (!Callee.CallsLowered) {
      for (unsigned A = 0; A < Callee.IntParamVRegs.size(); ++A)
        NewFr.VRegs[Callee.IntParamVRegs[A]] = A < IArgs.size() ? IArgs[A] : 0;
      for (unsigned A = 0; A < Callee.FpParamVRegs.size(); ++A)
        NewFr.VRegs[Callee.FpParamVRegs[A]] = A < FArgs.size() ? FArgs[A] : 0;
    }
    return true;
  }
  case Opcode::CArg:
    Fr.PendingIntArgs.push_back(read(Fr, I.op(0)));
    return true;
  case Opcode::FCArg:
    Fr.PendingFpArgs.push_back(read(Fr, I.op(0)));
    return true;
  case Opcode::CRes:
  case Opcode::FCRes:
    write(Fr, I.op(0), PendingRet);
    return true;
  case Opcode::Emit:
  case Opcode::FEmit:
    Result.Output.push_back(read(Fr, I.op(0)));
    return true;
  case Opcode::Nop:
    return true;
  }
  return fail("unhandled opcode");
}

RunResult Interp::run(const std::string &EntryName) {
  const Function *Entry = nullptr;
  for (const auto &F : M.functions())
    if (F->name() == EntryName)
      Entry = F.get();
  if (!Entry) {
    fail("no function named " + EntryName);
    return Result;
  }
  Mem = M.InitialMemory;
  if (Mem.size() < Opts.MinMemWords)
    Mem.resize(Opts.MinMemWords, 0);
  if (Opts.PoisonCallerSaved)
    PRegs.fill(PoisonPattern);
  pushFrame(*Entry);
  while (step()) {
  }
  return Result;
}

} // namespace

RunResult VM::run(const std::string &EntryName) {
  obs::ScopedSpan Span("vm.run:", EntryName, "vm");
  RunResult R = Interp(M, TD, Opts).run(EntryName);
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled())
    CR.recordRunStats(R.Stats);
  return R;
}

RunResult lsra::runOrDie(const Module &M, const TargetDesc &TD,
                         VM::Options Opts, const std::string &EntryName) {
  VM Machine(M, TD, Opts);
  RunResult R = Machine.run(EntryName);
  assert(R.Ok && "program execution failed");
  return R;
}
