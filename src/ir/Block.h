//===- ir/Block.h - Basic block -------------------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic block: a label, an ordered list of 32-bit instruction ids into
/// the owning function's InstrPool, and CFG edges derived from the
/// terminator's labels. Blocks do not own instruction storage — they own
/// only the id sequence, which bump-allocates from the function's arena.
///
/// instrs() returns a lightweight range proxy (by value). Indexing,
/// iteration, front()/back() all yield `Instr &` straight into the pool, so
/// positional access stays O(1) and in-place mutation works as it did when
/// blocks held a std::vector<Instr>. Structural edits (insert, erase,
/// wholesale rebuild) go through the Block methods below; rebuild-style
/// passes keep the ids of surviving instructions stable by re-using them in
/// setInstrIds().
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_BLOCK_H
#define LSRA_IR_BLOCK_H

#include "ir/InstrPool.h"
#include "support/Arena.h"

#include <array>
#include <cassert>
#include <string>
#include <type_traits>
#include <vector>

namespace lsra {

/// Random-access view over (pool, id sequence). Dereferencing yields
/// references into the pool; the view itself is freely copyable and cheap.
template <bool IsConst> class InstrRangeImpl {
  using PoolT = std::conditional_t<IsConst, const InstrPool, InstrPool>;
  using InstrT = std::conditional_t<IsConst, const Instr, Instr>;

public:
  class iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Instr;
    using difference_type = std::ptrdiff_t;
    using pointer = InstrT *;
    using reference = InstrT &;

    iterator() = default;
    iterator(PoolT *P, const uint32_t *It) : P(P), It(It) {}

    InstrT &operator*() const { return P->get(*It); }
    InstrT *operator->() const { return &P->get(*It); }
    InstrT &operator[](difference_type N) const { return P->get(It[N]); }

    iterator &operator++() { ++It; return *this; }
    iterator operator++(int) { iterator T = *this; ++It; return T; }
    iterator &operator--() { --It; return *this; }
    iterator operator--(int) { iterator T = *this; --It; return T; }
    iterator &operator+=(difference_type N) { It += N; return *this; }
    iterator &operator-=(difference_type N) { It -= N; return *this; }
    iterator operator+(difference_type N) const { return {P, It + N}; }
    iterator operator-(difference_type N) const { return {P, It - N}; }
    difference_type operator-(const iterator &O) const { return It - O.It; }

    bool operator==(const iterator &O) const { return It == O.It; }
    bool operator!=(const iterator &O) const { return It != O.It; }
    bool operator<(const iterator &O) const { return It < O.It; }
    bool operator>(const iterator &O) const { return It > O.It; }
    bool operator<=(const iterator &O) const { return It <= O.It; }
    bool operator>=(const iterator &O) const { return It >= O.It; }

  private:
    PoolT *P = nullptr;
    const uint32_t *It = nullptr;
  };

  InstrRangeImpl(PoolT *P, const uint32_t *Ids, std::size_t N)
      : P(P), Ids(Ids), N(N) {}

  iterator begin() const { return {P, Ids}; }
  iterator end() const { return {P, Ids + N}; }

  InstrT &operator[](std::size_t I) const {
    assert(I < N && "instruction index out of range");
    return P->get(Ids[I]);
  }
  InstrT &front() const { return (*this)[0]; }
  InstrT &back() const { return (*this)[N - 1]; }

  std::size_t size() const { return N; }
  bool empty() const { return N == 0; }

private:
  PoolT *P;
  const uint32_t *Ids;
  std::size_t N;
};

using InstrRange = InstrRangeImpl<false>;
using ConstInstrRange = InstrRangeImpl<true>;

/// A block's successor ids, in terminator operand order: none for `ret`,
/// one for `br`, and one or two for `cbr` (two equal targets count once).
/// Held inline, so asking a block for its successors allocates nothing.
class SuccList {
public:
  const unsigned *begin() const { return Ids.data(); }
  const unsigned *end() const { return Ids.data() + N; }
  unsigned size() const { return N; }
  bool empty() const { return N == 0; }
  unsigned operator[](unsigned I) const {
    assert(I < N && "successor index out of range");
    return Ids[I];
  }
  void push_back(unsigned Id) {
    assert(N < Ids.size() && "a terminator has at most two successors");
    Ids[N++] = Id;
  }

private:
  std::array<unsigned, 2> Ids{};
  unsigned N = 0;
};

/// Instruction-id sequence, bump-allocated from the function arena.
using IdVec = std::vector<uint32_t, ArenaAllocator<uint32_t>>;

class Block {
public:
  Block(InstrPool &Pool, BumpArena &Arena, unsigned Id, std::string Name)
      : Pool(&Pool), Id(Id), Name(std::move(Name)),
        Ids(ArenaAllocator<uint32_t>(&Arena)) {}

  unsigned id() const { return Id; }
  const std::string &name() const { return Name; }

  InstrRange instrs() { return {Pool, Ids.data(), Ids.size()}; }
  ConstInstrRange instrs() const { return {Pool, Ids.data(), Ids.size()}; }

  bool empty() const { return Ids.empty(); }
  unsigned size() const { return static_cast<unsigned>(Ids.size()); }

  Instr &append(Instr I) {
    uint32_t NewId = Pool->add(I);
    Ids.push_back(NewId);
    return Pool->get(NewId);
  }

  /// Pool id of the instruction at position \p Idx. Stable for the life of
  /// the function body, including across eraseInstr/setInstrIds of others.
  uint32_t instrId(unsigned Idx) const {
    assert(Idx < Ids.size() && "instruction index out of range");
    return Ids[Idx];
  }

  /// Add an instruction to the pool without placing it in any block; the
  /// caller threads the returned id into a setInstrIds() rebuild.
  uint32_t makeInstr(const Instr &I) { return Pool->add(I); }

  /// The terminator, asserting the block is non-empty and well-formed.
  Instr &terminator() {
    assert(hasTerminator() && "block has no terminator");
    return Pool->get(Ids.back());
  }
  const Instr &terminator() const {
    return const_cast<Block *>(this)->terminator();
  }

  bool hasTerminator() const {
    return !Ids.empty() && Pool->get(Ids.back()).isTerminator();
  }

  /// Successor block ids, in terminator operand order (empty for Ret).
  SuccList successors() const;

  /// Replace every label operand referring to \p OldId with \p NewId.
  void replaceSuccessor(unsigned OldId, unsigned NewId);

  /// Insert \p I at position \p Idx.
  void insertAt(unsigned Idx, const Instr &I) {
    assert(Idx <= Ids.size() && "insert position out of range");
    Ids.insert(Ids.begin() + Idx, Pool->add(I));
  }

  /// Insert \p I immediately before the terminator.
  void insertBeforeTerminator(const Instr &I) {
    assert(hasTerminator() && "block has no terminator");
    insertAt(size() - 1, I);
  }

  /// Insert \p I at the top of the block.
  void insertAtTop(const Instr &I) { insertAt(0, I); }

  /// Remove the instruction at position \p Idx from the block. Its pool
  /// slot stays live (ids are never recycled) until the body is released.
  void eraseInstr(unsigned Idx) {
    assert(Idx < Ids.size() && "erase position out of range");
    Ids.erase(Ids.begin() + Idx);
  }

  /// Replace the block's instruction sequence with \p NewIds. Rebuild
  /// passes pass the surviving original ids through unchanged (id
  /// stability) and mint ids for inserted code via makeInstr().
  void setInstrIds(const std::vector<uint32_t> &NewIds) {
    Ids.assign(NewIds.begin(), NewIds.end());
  }

  /// Replace the block's contents with fresh copies of \p Is. All ids are
  /// new; use setInstrIds() where surviving ids must be preserved.
  void setInstrs(const std::vector<Instr> &Is) {
    Ids.clear();
    for (const Instr &I : Is)
      Ids.push_back(Pool->add(I));
  }

private:
  InstrPool *Pool;
  unsigned Id;
  std::string Name;
  IdVec Ids;
};

} // namespace lsra

#endif // LSRA_IR_BLOCK_H
