//===- ir/Module.h - Compilation unit -------------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module: a set of functions (call targets are function ids) plus the
/// initial image of the flat word-addressed global memory the VM executes
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_MODULE_H
#define LSRA_IR_MODULE_H

#include "ir/Function.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lsra {

class Module {
public:
  Function &addFunction(std::string Name) {
    unsigned Id = static_cast<unsigned>(Funcs.size());
    Funcs.push_back(std::make_unique<Function>(Id, std::move(Name)));
    return *Funcs.back();
  }

  unsigned numFunctions() const { return static_cast<unsigned>(Funcs.size()); }

  Function &function(unsigned Id) {
    assert(Id < Funcs.size() && "bad function id");
    return *Funcs[Id];
  }
  const Function &function(unsigned Id) const {
    assert(Id < Funcs.size() && "bad function id");
    return *Funcs[Id];
  }

  /// Find a function by name; returns nullptr if absent.
  Function *findFunction(const std::string &Name) {
    for (auto &F : Funcs)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

  std::vector<std::unique_ptr<Function>> &functions() { return Funcs; }
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Funcs;
  }

  /// Initial global memory image (word addressed). The VM copies this at
  /// the start of each run, so one module can be executed repeatedly.
  std::vector<uint64_t> InitialMemory;

  /// Grow the initial memory image to at least \p Words words.
  void reserveMemory(unsigned Words) {
    if (InitialMemory.size() < Words)
      InitialMemory.resize(Words, 0);
  }

  /// Store an integer word into the initial memory image.
  void initWord(unsigned Addr, int64_t Value) {
    reserveMemory(Addr + 1);
    InitialMemory[Addr] = static_cast<uint64_t>(Value);
  }

  /// Store a double into the initial memory image (bit cast).
  void initDouble(unsigned Addr, double Value) {
    reserveMemory(Addr + 1);
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(Value));
    __builtin_memcpy(&Bits, &Value, sizeof(Bits));
    InitialMemory[Addr] = Bits;
  }

private:
  std::vector<std::unique_ptr<Function>> Funcs;
};

} // namespace lsra

#endif // LSRA_IR_MODULE_H
