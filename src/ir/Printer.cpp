//===- ir/Printer.cpp -----------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ostream>

using namespace lsra;

namespace {

template <typename T> void appendDecimal(std::string &Out, T V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr - Buf);
}

/// Append a double losslessly (17 significant digits round-trip). The text
/// must stay printf's "%.17g": golden files hash the printed module, and
/// the shortest round-trip form would print other bytes.
void appendDouble(std::string &Out, double D) {
  char Buf[64];
  int N = std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  Out.append(Buf, static_cast<size_t>(N));
}

const char *retKindName(CallRetKind K) {
  switch (K) {
  case CallRetKind::None:
    return "void";
  case CallRetKind::Int:
    return "int";
  case CallRetKind::Float:
    return "fp";
  }
  return "void";
}

/// Bytes of the image's run lines: per run "mem ", the address and '\n';
/// per value a blank and its lowercase hex digits.
size_t imageBytes(const std::vector<uint64_t> &Mem) {
  size_t Bytes = 0;
  uint64_t Prev = 0;
  for (size_t A = 0; A < Mem.size(); Prev = Mem[A++]) {
    uint64_t W = Mem[A];
    if (W && !Prev) {
      char Buf[24];
      Bytes += 5 + (std::to_chars(Buf, Buf + sizeof(Buf), A).ptr - Buf);
    }
    Bytes += W ? 1 + (std::bit_width(W) + 3) / 4 : 0;
  }
  return Bytes;
}

/// Append "memsize N", then one "mem ADDR V1 V2 ... Vn" line per maximal
/// run of nonzero words, values in lowercase hex without "0x", then a blank
/// line. The run lines are written in place into \p Out, grown once by
/// their size \p Bytes (imageBytes).
void appendImage(std::string &Out, const std::vector<uint64_t> &Mem,
                 size_t Bytes) {
  if (Mem.empty())
    return;
  Out += "memsize ";
  appendDecimal(Out, Mem.size());
  Out += '\n';
  size_t At = Out.size();
  Out.resize(At + Bytes);
  char *P = Out.data() + At, *End = Out.data() + Out.size();
  for (size_t A = 0; A < Mem.size();) {
    if (!Mem[A]) {
      ++A;
      continue;
    }
    std::memcpy(P, "mem ", 4);
    P = std::to_chars(P + 4, End, A).ptr;
    for (; A < Mem.size() && Mem[A]; ++A) {
      *P++ = ' ';
      P = std::to_chars(P, End, Mem[A], 16).ptr;
    }
    *P++ = '\n';
  }
  Out += '\n';
}

/// Append \p Op; \p M (optional) resolves function-reference names.
void printOperand(std::string &Out, const Operand &Op, const Module *M) {
  switch (Op.kind()) {
  case Operand::Kind::None:
    Out += '_';
    break;
  case Operand::Kind::VReg:
    Out += '%';
    appendDecimal(Out, Op.vregId());
    break;
  case Operand::Kind::PReg:
    if (pregClass(Op.pregId()) == RegClass::Int) {
      Out += '$';
      appendDecimal(Out, Op.pregId());
    } else {
      Out += "$f";
      appendDecimal(Out, Op.pregId() - NumIntPRegs);
    }
    break;
  case Operand::Kind::Imm:
    appendDecimal(Out, Op.immValue());
    break;
  case Operand::Kind::FImm:
    appendDouble(Out, Op.fimmValue());
    break;
  case Operand::Kind::Slot:
    Out += "[s";
    appendDecimal(Out, Op.slotId());
    Out += ']';
    break;
  case Operand::Kind::Label:
    Out += "bb";
    appendDecimal(Out, Op.labelBlock());
    break;
  case Operand::Kind::Func:
    if (M) {
      Out += '@';
      Out += M->function(Op.funcId()).name();
    } else {
      Out += "@f";
      appendDecimal(Out, Op.funcId());
    }
    break;
  }
}

} // namespace

void lsra::printInstr(std::string &Out, const Instr &I, const Function &F,
                      const Module *M) {
  (void)F;
  Out += opcodeName(I.opcode());
  bool First = true;
  for (unsigned OpIdx = 0; OpIdx < 3; ++OpIdx) {
    const Operand &Op = I.op(OpIdx);
    if (Op.isNone())
      continue;
    Out += First ? " " : ", ";
    First = false;
    printOperand(Out, Op, M);
  }
  if (I.isCall()) {
    Out += "  (iargs=";
    appendDecimal(Out, I.CallIntArgs);
    Out += " fargs=";
    appendDecimal(Out, I.CallFpArgs);
    Out += ')';
  }
  if (I.Spill != SpillKind::None) {
    Out += "  ; ";
    Out += spillKindName(I.Spill);
  }
}

void lsra::printFunction(std::string &Out, const Function &F,
                         const Module *M) {
  Out += "func ";
  Out += F.name();
  Out += " (iparams=";
  appendDecimal(Out, F.IntParamVRegs.size());
  Out += " fparams=";
  appendDecimal(Out, F.FpParamVRegs.size());
  Out += " ret=";
  Out += retKindName(F.RetKind);
  Out += " vregs=";
  appendDecimal(Out, F.numVRegs());
  Out += " slots=";
  appendDecimal(Out, F.numSlots());
  Out += F.CallsLowered ? " lowered)\n" : ")\n";
  // Declarations the textual form needs for a lossless round trip: vreg
  // and slot register classes (fp ids only; everything else is int), and
  // parameter vreg bindings.
  bool AnyFp = false;
  for (unsigned V = 0; V < F.numVRegs() && !AnyFp; ++V)
    AnyFp = F.vregClass(V) == RegClass::Float;
  if (AnyFp) {
    Out += "  fpvregs:";
    for (unsigned V = 0; V < F.numVRegs(); ++V)
      if (F.vregClass(V) == RegClass::Float) {
        Out += " %";
        appendDecimal(Out, V);
      }
    Out += '\n';
  }
  bool AnyFpSlot = false;
  for (unsigned S = 0; S < F.numSlots() && !AnyFpSlot; ++S)
    AnyFpSlot = F.slotClass(S) == RegClass::Float;
  if (AnyFpSlot) {
    Out += "  fpslots:";
    for (unsigned S = 0; S < F.numSlots(); ++S)
      if (F.slotClass(S) == RegClass::Float) {
        Out += " s";
        appendDecimal(Out, S);
      }
    Out += '\n';
  }
  if (!F.IntParamVRegs.empty() || !F.FpParamVRegs.empty()) {
    Out += "  params:";
    for (const auto *Regs : {&F.IntParamVRegs, &F.FpParamVRegs})
      for (unsigned V : *Regs) {
        Out += " %";
        appendDecimal(Out, V);
      }
    Out += '\n';
  }
  for (const Block &B : F.blocks()) {
    Out += "bb";
    appendDecimal(Out, B.id());
    Out += " (";
    Out += B.name();
    Out += "):\n";
    for (const Instr &I : B.instrs()) {
      Out += "  ";
      printInstr(Out, I, F, M);
      Out += '\n';
    }
  }
}

void lsra::printModule(std::string &Out, const Module &M) {
  // One reservation for the whole text, instead of a dozen regrowths: the
  // image's exact size, and per function its header, a line per block and
  // 32 bytes per instruction (allocated code with spill tags prints up to
  // about 30).
  size_t Image = imageBytes(M.InitialMemory);
  size_t Guess = Out.size() + 32 + Image;
  for (const auto &F : M.functions())
    Guess += 128 + 16 * size_t(F->numBlocks()) + 32 * size_t(F->numInstrs());
  Out.reserve(Guess);
  appendImage(Out, M.InitialMemory, Image);
  for (const auto &F : M.functions()) {
    printFunction(Out, *F, &M);
    Out += '\n';
  }
}

void lsra::printFunction(std::ostream &OS, const Function &F,
                         const Module *M) {
  OS << toString(F, M);
}

void lsra::printModule(std::ostream &OS, const Module &M) {
  std::string Out;
  printModule(Out, M);
  OS << Out;
}

std::string lsra::toString(const Function &F, const Module *M) {
  std::string Out;
  printFunction(Out, F, M);
  return Out;
}

std::string lsra::toString(const Instr &I, const Function &F,
                           const Module *M) {
  std::string Out;
  printInstr(Out, I, F, M);
  return Out;
}

void lsra::printDotCFG(std::ostream &OS, const Function &F, const Module *M) {
  OS << "digraph \"" << F.name() << "\" {\n";
  OS << "  node [shape=box fontname=\"monospace\"];\n";
  for (const Block &B : F.blocks()) {
    OS << "  bb" << B.id() << " [label=\"bb" << B.id() << " (" << B.name()
       << ")\\l";
    for (const Instr &I : B.instrs()) {
      // Escape characters dot treats specially inside labels.
      std::string Esc;
      for (char C : toString(I, F, M)) {
        if (C == '"' || C == '\\')
          Esc += '\\';
        Esc += C;
      }
      OS << "  " << Esc << "\\l";
    }
    OS << "\"];\n";
    for (unsigned S : B.successors())
      OS << "  bb" << B.id() << " -> bb" << S << ";\n";
  }
  OS << "}\n";
}
