//===- support/BitVector.h - Dense bit vector -----------------*- C++ -*-===//
//
// Part of the lsra project: a reproduction of Traub, Holloway & Smith,
// "Quality and Speed in Linear-scan Register Allocation" (PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, word-packed bit vector with the set operations needed by the
/// liveness and consistency dataflow analyses (union, intersection,
/// subtraction, and change detection for fixed-point iteration).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SUPPORT_BITVECTOR_H
#define LSRA_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace lsra {

/// Dense fixed-universe bit vector.
///
/// All binary operations require equal sizes; this is asserted. The
/// |=, &=, and subtract operations return true when the receiver changed,
/// which is what iterative dataflow solvers need to detect a fixed point.
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(unsigned NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  unsigned size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  void resize(unsigned N, bool Value = false) {
    NumBits = N;
    Words.assign(numWords(N), Value ? ~uint64_t(0) : 0);
    clearUnusedBits();
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearUnusedBits();
  }

  bool test(unsigned I) const {
    assert(I < NumBits && "bit index out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  void set(unsigned I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] |= uint64_t(1) << (I % 64);
  }

  void reset(unsigned I) {
    assert(I < NumBits && "bit index out of range");
    Words[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  void setValue(unsigned I, bool V) {
    if (V)
      set(I);
    else
      reset(I);
  }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  /// Set union; returns true if the receiver changed.
  bool operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    bool Changed = false;
    for (unsigned I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Set intersection; returns true if the receiver changed.
  bool operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    bool Changed = false;
    for (unsigned I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Set subtraction (this &= ~RHS); returns true if the receiver changed.
  bool subtract(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    bool Changed = false;
    for (unsigned I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] &= ~RHS.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  /// Receiver |= (A - B), the transfer function of most backward bit-vector
  /// problems; returns true if the receiver changed.
  bool unionWithDifference(const BitVector &A, const BitVector &B) {
    assert(NumBits == A.NumBits && NumBits == B.NumBits && "size mismatch");
    bool Changed = false;
    for (unsigned I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= A.Words[I] & ~B.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Invoke \p F(index) for every set bit in ascending order. Word-level
  /// iteration (count-trailing-zeros per set bit, whole zero words skipped
  /// in one test), so it is much faster on sparse vectors than per-bit
  /// test() loops and faster than setBits(), which re-scans from the
  /// current bit on every ++.
  template <typename Fn> void forEachSetBit(Fn &&F) const {
    for (unsigned WI = 0, E = static_cast<unsigned>(Words.size()); WI != E;
         ++WI) {
      uint64_t W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        W &= W - 1;
        F(WI * 64 + Bit);
      }
    }
  }

  /// Invoke \p F(index) for every bit set here and clear in \p RHS, in
  /// ascending order, a word at a time.
  template <typename Fn>
  void forEachSetBitNotIn(const BitVector &RHS, Fn &&F) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    for (unsigned WI = 0, E = static_cast<unsigned>(Words.size()); WI != E;
         ++WI) {
      uint64_t W = Words[WI] & ~RHS.Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        W &= W - 1;
        F(WI * 64 + Bit);
      }
    }
  }

  /// First set bit at index >= From, or -1 if none.
  int findNext(unsigned From) const;

  /// First set bit, or -1 if the vector is empty of set bits.
  int findFirst() const { return findNext(0); }

  /// Iteration over set bits: for (unsigned I : BV.setBits()) ...
  class SetBitsRange;
  SetBitsRange setBits() const;

private:
  static unsigned numWords(unsigned Bits) { return (Bits + 63) / 64; }

  void clearUnusedBits() {
    if (unsigned Rem = NumBits % 64; Rem != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << Rem) - 1;
  }

  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

class BitVector::SetBitsRange {
public:
  class iterator {
  public:
    iterator(const BitVector *BV, int Cur) : BV(BV), Cur(Cur) {}
    unsigned operator*() const { return static_cast<unsigned>(Cur); }
    iterator &operator++() {
      Cur = BV->findNext(static_cast<unsigned>(Cur) + 1);
      return *this;
    }
    bool operator!=(const iterator &RHS) const { return Cur != RHS.Cur; }

  private:
    const BitVector *BV;
    int Cur;
  };

  explicit SetBitsRange(const BitVector *BV) : BV(BV) {}
  iterator begin() const { return iterator(BV, BV->findFirst()); }
  iterator end() const { return iterator(BV, -1); }

private:
  const BitVector *BV;
};

inline BitVector::SetBitsRange BitVector::setBits() const {
  return SetBitsRange(this);
}

} // namespace lsra

#endif // LSRA_SUPPORT_BITVECTOR_H
