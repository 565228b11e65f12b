//===- ir/Function.h - Function (procedure) -------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A procedure: an entry block plus basic blocks in layout order, a dense
/// space of virtual registers (the paper's "temporaries": both program
/// variables and compiler-generated values), and a dense space of frame
/// slots used for locals, spill homes, and callee-save storage.
///
/// Storage model: the function owns one bump arena (block id vectors), one
/// InstrPool (all instruction records, stable 32-bit ids), and the blocks
/// themselves in a deque (stable `Block &` across addBlock). The entire
/// body is released in O(#chunks) by releaseBody(), which is what keeps the
/// streaming module pipeline's resident set bounded by the working set.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_FUNCTION_H
#define LSRA_IR_FUNCTION_H

#include "ir/Block.h"

#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace lsra {

class Function;

/// The predecessor lists of every block of a function in one offsets array
/// and one id array: `Preds[B]` is B's predecessors in block order, listed
/// once per edge. recompute() reuses the storage.
class PredecessorLists {
public:
  PredecessorLists() = default;
  explicit PredecessorLists(const Function &F) { recompute(F); }

  /// Refill for \p F, keeping the storage.
  void recompute(const Function &F);

  std::span<const unsigned> operator[](unsigned B) const {
    return {Ids.data() + Offsets[B], Offsets[B + 1] - Offsets[B]};
  }
  /// Edges are numbered in list order: Preds[B][I] is edge firstEdge(B) + I.
  unsigned firstEdge(unsigned B) const { return Offsets[B]; }
  unsigned numEdges() const { return unsigned(Ids.size()); }

private:
  std::vector<unsigned> Offsets; ///< one per block, plus the end
  std::vector<unsigned> Ids;
  std::vector<std::pair<unsigned, unsigned>> Edges; ///< (to, from) work list
};

class Function {
public:
  Function(unsigned Id, std::string Name) : Id(Id), Name(std::move(Name)) {}
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }

  // --- Virtual registers -------------------------------------------------

  unsigned newVReg(RegClass RC) {
    VRegClasses.push_back(RC);
    return static_cast<unsigned>(VRegClasses.size() - 1);
  }
  unsigned numVRegs() const { return static_cast<unsigned>(VRegClasses.size()); }
  RegClass vregClass(unsigned V) const {
    assert(V < VRegClasses.size() && "bad vreg id");
    return VRegClasses[V];
  }

  // --- Frame slots --------------------------------------------------------

  unsigned newSlot(RegClass RC) {
    SlotClasses.push_back(RC);
    return static_cast<unsigned>(SlotClasses.size() - 1);
  }
  unsigned numSlots() const { return static_cast<unsigned>(SlotClasses.size()); }
  RegClass slotClass(unsigned S) const {
    assert(S < SlotClasses.size() && "bad slot id");
    return SlotClasses[S];
  }

  // --- Blocks -------------------------------------------------------------

  Block &addBlock(std::string BlockName) {
    unsigned BId = static_cast<unsigned>(Blocks.size());
    Blocks.emplace_back(Pool, Arena, BId, std::move(BlockName));
    return Blocks.back();
  }
  unsigned numBlocks() const { return static_cast<unsigned>(Blocks.size()); }
  Block &block(unsigned BId) {
    assert(BId < Blocks.size() && "bad block id");
    return Blocks[BId];
  }
  const Block &block(unsigned BId) const {
    assert(BId < Blocks.size() && "bad block id");
    return Blocks[BId];
  }
  Block &entry() {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front();
  }
  const Block &entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front();
  }

  /// Iterate blocks in id (layout) order. Block ids are stable; this is
  /// also the static linear order the binpacking scan uses.
  std::deque<Block> &blocks() { return Blocks; }
  const std::deque<Block> &blocks() const { return Blocks; }

  /// Predecessor lists, indexed by block id, computed on demand.
  PredecessorLists predecessors() const { return PredecessorLists(*this); }

  /// Total instruction count across all blocks.
  unsigned numInstrs() const;

  // --- Storage ------------------------------------------------------------

  InstrPool &instrPool() { return Pool; }
  const InstrPool &instrPool() const { return Pool; }
  BumpArena &arena() { return Arena; }

  /// Drop the body wholesale: blocks, instruction pool, arena, vreg and
  /// slot spaces. The signature survives — name, id, RetKind and the
  /// parameter vreg lists (callers consult only their sizes) — so the
  /// function can still be called, and a FunctionBuilder can rebuild it.
  /// The streaming pipeline calls this after emitting each function.
  void releaseBody();

  // --- Signature ----------------------------------------------------------

  // Parameter vregs, in declaration order per class. LowerCalls emits the
  // entry moves from the argument registers into these vregs (the code
  // shape the paper's move optimisation targets).
  std::vector<unsigned> IntParamVRegs;
  std::vector<unsigned> FpParamVRegs;
  CallRetKind RetKind = CallRetKind::None;

  /// Set once LowerCalls has expanded calling conventions; allocators
  /// require it.
  bool CallsLowered = false;

private:
  unsigned Id;
  std::string Name;
  std::vector<RegClass> VRegClasses;
  std::vector<RegClass> SlotClasses;
  BumpArena Arena;
  InstrPool Pool;
  std::deque<Block> Blocks;
};

} // namespace lsra

#endif // LSRA_IR_FUNCTION_H
