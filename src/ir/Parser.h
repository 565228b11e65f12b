//===- ir/Parser.h - Textual IR parser -------------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the textual form emitted by ir/Printer.h. Printing a module
/// and parsing the result reproduces the module exactly (instructions,
/// register classes, parameter bindings, call metadata, spill tags, and
/// the initial memory image), which the round-trip tests verify. This is
/// what lets IR test fixtures live as text and lets the `lsra` command
/// line tool load programs from files.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_IR_PARSER_H
#define LSRA_IR_PARSER_H

#include "ir/Module.h"

#include <memory>
#include <string>

namespace lsra {

/// Upper bound (exclusive) on a `mem` address and on a `memsize` that IR
/// text may declare, in words: 2^24 words is 128 MiB of image, over 1000x
/// the largest built-in workload (wc, 12,000 words). A larger value is a
/// parse error naming its line, not an allocation the host cannot make.
constexpr unsigned long long MaxMemoryWords = 1ull << 24;

struct ParseResult {
  std::unique_ptr<Module> M; ///< null on failure
  /// Human-readable diagnostic on failure: "line N, col C: message
  /// (near 'TOKEN')"; column and token are omitted when unknown.
  std::string Error;
  unsigned ErrLine = 0;  ///< 1-based line of the error (0 = no position)
  unsigned ErrCol = 0;   ///< 1-based column of the offending token (0 = n/a)
  std::string ErrToken;  ///< the offending token, when identifiable
  bool ok() const { return M != nullptr; }
};

/// Parse the textual form of a module.
ParseResult parseModule(const std::string &Text);

} // namespace lsra

#endif // LSRA_IR_PARSER_H
