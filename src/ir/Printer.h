//===- ir/Printer.h - Textual IR dump -------------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable dumps of operands, instructions, functions, and modules,
/// used by the examples and by test failure diagnostics. The text is also
/// the compile pipeline's output and the function cache key, so there is
/// one implementation: it appends to a std::string. The ostream forms are
/// thin wrappers over it.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_PRINTER_H
#define LSRA_IR_PRINTER_H

#include "ir/Module.h"

#include <iosfwd>
#include <string>

namespace lsra {

/// Append one instruction (no trailing newline). Spill-category tags are
/// shown as trailing comments so allocator output is self-describing.
void printInstr(std::string &Out, const Instr &I, const Function &F,
                const Module *M = nullptr);

/// Append a whole function.
void printFunction(std::string &Out, const Function &F,
                   const Module *M = nullptr);
void printFunction(std::ostream &OS, const Function &F,
                   const Module *M = nullptr);

/// Append a whole module: the memory image, then every function.
void printModule(std::string &Out, const Module &M);
void printModule(std::ostream &OS, const Module &M);

/// Convenience: function dump as a string (tests use this).
std::string toString(const Function &F, const Module *M = nullptr);

/// Convenience: single-instruction dump as a string.
std::string toString(const Instr &I, const Function &F,
                     const Module *M = nullptr);

/// Emit the function's CFG in Graphviz dot format (one node per block with
/// its instructions; edges follow the terminators).
void printDotCFG(std::ostream &OS, const Function &F,
                 const Module *M = nullptr);

} // namespace lsra

#endif // LSRA_IR_PRINTER_H
