//===- support/Hash.h - Word-at-a-time content hash -------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one non-cryptographic hash. The compile-cache keys (128
/// bits), the AllocOptions and TargetDesc fingerprints and the shared L2
/// entry checksum all come from it.
///
/// Two independent 64-bit lanes read the input one 8-byte word at a time.
/// A lane's step is S' = fold((S ^ W) * K): the full 128-bit product of the
/// state-mixed word and an odd lane constant, high half XORed into the low
/// half. Flipping input bit i changes the product by +-2^i*K, and the
/// carries of the product and of the fold make the new state's difference
/// depend on the values hashed. So no flipped bit leaves a fixed state
/// difference behind, and two flips cannot be placed to cancel. (Word-wise
/// FNV-1a, S' = (S ^ W) * P, lets a top-bit flip through every later step
/// unchanged, so two top-bit flips collide.) The lanes run side by side,
/// so one pass over a text costs about one multiply latency per word.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SUPPORT_HASH_H
#define LSRA_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lsra {

class WordHash {
public:
  /// \p Seed separates uses (a schema or level tag), so equal inputs under
  /// different tags hash apart.
  explicit WordHash(uint64_t Seed = 0)
      : A(0xcbf29ce484222325ull ^ Seed), B(0x84222325cbf29ce4ull ^ Seed) {}

  /// Mix one 64-bit word into both lanes.
  WordHash &word(uint64_t W) {
    A = step(A ^ W, 0x9e3779b97f4a7c15ull);
    B = step(B ^ W, 0xc2b2ae3d27d4eb4full);
    return *this;
  }

  /// Mix \p Len bytes: the whole words, the zero-padded tail, then the
  /// length, so texts that differ only in trailing zero bytes differ.
  WordHash &bytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    size_t N = Len;
    for (; N >= 8; P += 8, N -= 8) {
      uint64_t W = 0;
      std::memcpy(&W, P, 8);
      word(W);
    }
    if (N) {
      uint64_t W = 0;
      std::memcpy(&W, P, N);
      word(W);
    }
    return word(Len);
  }

  uint64_t hi() const { return A; }
  uint64_t lo() const { return B; }
  /// Both lanes folded to one 64-bit value.
  uint64_t value() const { return A ^ B; }

private:
  static uint64_t step(uint64_t X, uint64_t K) {
    unsigned __int128 P = static_cast<unsigned __int128>(X) * K;
    return static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64);
  }

  uint64_t A, B;
};

} // namespace lsra

#endif // LSRA_SUPPORT_HASH_H
