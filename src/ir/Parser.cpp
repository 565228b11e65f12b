//===- ir/Parser.cpp ------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One pass over a string_view of the text. Lines are found with memchr and
/// numbers read with from_chars; no per-line or per-token string is made.
/// A function is added when its header is seen, so ids follow text order;
/// call targets are recorded as fixups and resolved at the end against a
/// name -> id hash map. The memory image, most of a printed corpus
/// module's bytes, is read one run line at a time by a table-driven hex
/// decode straight into the image, which a leading `memsize` sizes once.
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace lsra;

namespace {

/// One parsed call-target fixup: the instruction refers to a function by
/// name; ids are resolved once every function header is known.
struct CallFixup {
  Function *F;
  unsigned Block;
  unsigned InstrIdx;
  std::string_view Callee; ///< the "@NAME" operand; empty if there is none
  unsigned Line, Col;      ///< where the operand is, for the diagnostic
};

bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.compare(0, Prefix.size(), Prefix) == 0;
}

/// Parse all of \p S as an unsigned decimal number: digits only, no
/// sign, no overflow (so "%1x", "$f" or a 2^32 vreg id are rejected, not
/// truncated).
template <typename T> bool parseFull(std::string_view S, T &Out) {
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && P == S.data() + S.size();
}

/// The value of each byte as a hex digit of either case; 16 for any byte
/// that is not one.
constexpr std::array<uint8_t, 256> HexDigit = [] {
  std::array<uint8_t, 256> T{};
  for (uint8_t &D : T)
    D = 16;
  for (unsigned C = 0; C < 10; ++C)
    T['0' + C] = static_cast<uint8_t>(C);
  for (unsigned C = 0; C < 6; ++C)
    T['a' + C] = T['A' + C] = static_cast<uint8_t>(10 + C);
  return T;
}();

/// Read \p S as an unsigned decimal that must fit a 64-bit value below
/// \p Limit. Returns 1 when it does, 0 when \p S is not all digits, and -1
/// when the digits overflow or reach the limit.
int parseBounded(std::string_view S, unsigned long long Limit,
                 unsigned long long &Out) {
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  if (P != S.data() + S.size() ||
      (Ec != std::errc() && Ec != std::errc::result_out_of_range))
    return 0;
  return Ec == std::errc() && Out < Limit ? 1 : -1;
}

/// An integer immediate: optional leading blanks and sign (as strtoll took
/// them, so hand-written text keeps parsing), then decimal digits, in range
/// of int64_t.
bool parseImm(std::string_view S, int64_t &Out) {
  size_t I = S.find_first_not_of(" \t\v\f\r");
  if (I == std::string_view::npos)
    return false;
  S.remove_prefix(I);
  if (S.size() > 1 && S[0] == '+' && S[1] != '-')
    S.remove_prefix(1);
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && P == S.data() + S.size();
}

/// A `movf` immediate, read with strtod (hex floats, inf and nan included)
/// from a NUL-terminated copy of the token.
bool parseDouble(std::string_view S, double &Out) {
  char Buf[64];
  std::string Long;
  const char *C = Buf;
  if (S.size() < sizeof(Buf)) {
    std::memcpy(Buf, S.data(), S.size());
    Buf[S.size()] = '\0';
  } else {
    Long.assign(S);
    C = Long.c_str();
  }
  char *End = nullptr;
  Out = std::strtod(C, &End);
  return !S.empty() && End == C + S.size();
}

/// The opcode and spill-tag name tables, built once per process.
const std::unordered_map<std::string_view, Opcode> &opcodeTable() {
  static const auto Table = [] {
    std::unordered_map<std::string_view, Opcode> T;
    for (unsigned I = 0; I < NumOpcodes; ++I)
      T.emplace(opcodeName(static_cast<Opcode>(I)), static_cast<Opcode>(I));
    return T;
  }();
  return Table;
}

const std::unordered_map<std::string_view, SpillKind> &spillTable() {
  static const auto Table = [] {
    std::unordered_map<std::string_view, SpillKind> T;
    for (SpillKind K :
         {SpillKind::EvictLoad, SpillKind::EvictStore, SpillKind::EvictMove,
          SpillKind::ResolveLoad, SpillKind::ResolveStore,
          SpillKind::ResolveMove, SpillKind::CalleeSave,
          SpillKind::CalleeRestore})
      T.emplace(spillKindName(K), K);
    return T;
  }();
  return Table;
}

/// Extract the value after \p Key ("vregs=") from a header body like
/// "(iparams=2 fparams=0 ret=int vregs=9 slots=0 lowered)". The value
/// runs to the next ' ' or ')'.
bool headerField(std::string_view Body, std::string_view Key,
                 std::string_view &Out) {
  size_t P = Body.find(Key);
  if (P == std::string_view::npos)
    return false;
  size_t S = P + Key.size();
  size_t E = Body.find_first_of(" )", S);
  Out = Body.substr(S, E == std::string_view::npos ? E : E - S);
  return true;
}

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run();

private:
  std::string_view Text;
  size_t Pos = 0; ///< start of the next unread line
  unsigned LineNo = 0;
  std::string_view Line; ///< current line, trailing ' '/'\r' trimmed
  std::unique_ptr<Module> M = std::make_unique<Module>();
  std::string Error;
  unsigned ErrLine = 0;
  unsigned ErrCol = 0;
  std::string ErrToken;
  std::vector<CallFixup> Fixups;
  std::unordered_map<std::string_view, unsigned> FuncByName;
  /// Size of the memory image: one past the highest `mem` address, or the
  /// largest `memsize`, whichever is more.
  size_t MemWords = 0;

  // The function being read and its block; null at top level.
  Function *CurF = nullptr;
  Block *CurB = nullptr;
  // Header counts and the declaration lines that may follow the header,
  // applied when the first other line (or the end of the function) is seen.
  bool InDecls = false;
  unsigned NumV = 0, NumS = 0;
  std::vector<bool> FpVReg, FpSlot;
  std::vector<unsigned> Params;

  /// 1-based column of \p Tok in the current line; 0 if it is not a view
  /// into it.
  unsigned columnOf(std::string_view Tok) const {
    if (Tok.empty() || Tok.data() < Line.data() ||
        Tok.data() >= Line.data() + Line.size())
      return 0;
    return static_cast<unsigned>(Tok.data() - Line.data()) + 1;
  }

  /// Failure anchored at token \p Tok at line \p L, column \p Col (servers
  /// turn this into structured error responses; "line N, col C: msg (near
  /// 'TOK')").
  bool failAt(unsigned L, unsigned Col, const std::string &Msg,
              std::string_view Tok) {
    if (!Error.empty())
      return false;
    ErrLine = L;
    ErrCol = Col;
    ErrToken.assign(Tok);
    Error = "line " + std::to_string(L);
    if (ErrCol)
      Error += ", col " + std::to_string(ErrCol);
    Error += ": " + Msg;
    if (!Tok.empty())
      Error += " (near '" + ErrToken + "')";
    return false;
  }

  /// Failure anchored at \p Tok, a view into the current line.
  bool failTok(const std::string &Msg, std::string_view Tok) {
    return failAt(LineNo, columnOf(Tok), Msg, Tok);
  }

  /// Failure of the current line as a whole ("line N: msg").
  bool fail(const std::string &Msg) { return failAt(LineNo, 0, Msg, {}); }

  /// The first word of \p L: up to the next space.
  static std::string_view firstWord(std::string_view L) {
    return L.substr(0, L.find(' '));
  }

  /// Advance to the next line that is neither blank nor a comment (";"
  /// first — corpus files carry "; oracle: ..." replay headers). Sets Line
  /// and returns the line with leading spaces removed in \p Trimmed.
  bool nextLine(std::string_view &Trimmed) {
    while (Pos < Text.size()) {
      const char *Start = Text.data() + Pos;
      size_t Left = Text.size() - Pos;
      const char *NL =
          static_cast<const char *>(std::memchr(Start, '\n', Left));
      size_t Len = NL ? static_cast<size_t>(NL - Start) : Left;
      Pos += NL ? Len + 1 : Len;
      ++LineNo;
      while (Len && (Start[Len - 1] == ' ' || Start[Len - 1] == '\r'))
        --Len;
      size_t First = 0;
      while (First < Len && Start[First] == ' ')
        ++First;
      if (First < Len && Start[First] != ';') {
        Line = std::string_view(Start, Len);
        Trimmed = Line.substr(First);
        return true;
      }
    }
    return false;
  }

  bool parseLine(std::string_view T);
  bool parseMem(std::string_view T);
  bool parseMemSize(std::string_view T);
  bool parseFunctionHeader(std::string_view T);
  bool parseDeclLine(std::string_view T);
  void finishDecls();
  bool parseBlockHeader(std::string_view T);
  bool parseInstr(std::string_view Body);
  bool parseOperand(std::string_view Tok, Opcode Op, unsigned Slot,
                    Operand &Out, std::string_view &CalleeName);
  bool parseDeclaredCount(std::string_view V, const std::string &Name,
                          unsigned &Out);

  /// End the current function, if any: apply pending declarations and
  /// return to top level.
  void endFunction() {
    if (!CurF)
      return;
    finishDecls();
    CurF = nullptr;
    CurB = nullptr;
  }

  /// A `mem` address, a run's word or a `memsize` at or above
  /// MaxMemoryWords.
  bool failMemTooLarge(const char *What, std::string_view Tok) {
    return failTok(std::string(What) + " out of range (limit " +
                       std::to_string(MaxMemoryWords) + " words)",
                   Tok);
  }

  /// Failure at the token of the current line that starts at \p S and runs
  /// to the next blank or \p End. An empty token (a doubled blank) is
  /// reported at its column.
  bool failMemToken(const std::string &Msg, const char *S, const char *End) {
    const char *E = static_cast<const char *>(std::memchr(S, ' ', End - S));
    return failAt(LineNo, static_cast<unsigned>(S - Line.data()) + 1, Msg,
                  std::string_view(S, (E ? E : End) - S));
  }
};

/// "mem ADDR VAL+": the values go to words ADDR, ADDR + 1, ... Each VAL is
/// 1-16 hex digits with an optional "0x", after exactly one blank. An
/// address past 2^59 reads as UINT64_MAX: out of range either way, and
/// never wrapped.
bool Parser::parseMem(std::string_view T) {
  const char *P = T.data() + 4, *End = T.data() + T.size();
  const char *Tok = P;
  uint64_t Addr = 0;
  for (; P < End && static_cast<unsigned>(*P - '0') < 10; ++P)
    Addr = Addr >= (1ull << 59) ? UINT64_MAX : Addr * 10 + (*P - '0');
  if (P == Tok || (P < End && *P != ' '))
    return failMemToken("bad mem address", Tok, End);
  if (Addr >= MaxMemoryWords)
    return failMemTooLarge("mem address", std::string_view(Tok, P - Tok));
  if (P == End)
    return failMemToken("mem line without a value", Tok, End);
  std::vector<uint64_t> &Mem = M->InitialMemory;
  while (P < End) {
    Tok = ++P; // past the one blank
    if (End - P >= 2 && P[0] == '0' && P[1] == 'x')
      P += 2;
    const char *Digits = P;
    uint64_t V = 0;
    for (unsigned D;
         P < End && (D = HexDigit[static_cast<uint8_t>(*P)]) < 16; ++P)
      V = V << 4 | D;
    if (P == Digits || P - Digits > 16 || (P < End && *P != ' '))
      return failMemToken("bad mem value", Tok, End);
    if (Addr >= MaxMemoryWords)
      return failMemTooLarge("mem run", std::string_view(Tok, P - Tok));
    if (Addr >= Mem.size()) // grow by doubling; run() trims to MemWords
      Mem.resize(std::min<size_t>(std::max<size_t>(Addr + 1, Mem.size() * 2),
                                  MaxMemoryWords));
    Mem[Addr++] = V;
  }
  MemWords = std::max<size_t>(MemWords, Addr);
  return true;
}

bool Parser::parseMemSize(std::string_view T) {
  std::string_view Tok = T.substr(8);
  unsigned long long Words = 0;
  int Fits = parseBounded(Tok, MaxMemoryWords, Words);
  if (!Fits)
    return failTok("bad memsize", Tok);
  if (Fits < 0)
    return failMemTooLarge("memsize", Tok);
  MemWords = std::max<size_t>(MemWords, Words);
  // Printed text declares the size first, so the runs fill a sized image.
  if (M->InitialMemory.size() < MemWords)
    M->InitialMemory.resize(MemWords);
  return true;
}

/// Read \p V, the value of header field \p Name ("vregs"), strictly:
/// decimal digits only, below MaxDeclaredIds.
bool Parser::parseDeclaredCount(std::string_view V, const std::string &Name,
                                unsigned &Out) {
  unsigned long long N = 0;
  int Fits = parseBounded(V, MaxDeclaredIds, N);
  if (!Fits) // an empty value is reported at its "NAME=" key
    return failTok("bad " + Name + " count",
                   V.empty() ? std::string_view(V.data() - Name.size() - 1,
                                                Name.size() + 1)
                             : V);
  if (Fits < 0)
    return failTok(Name + " out of range (limit " +
                       std::to_string(MaxDeclaredIds) + ")",
                   V);
  Out = static_cast<unsigned>(N);
  return true;
}

bool Parser::parseFunctionHeader(std::string_view T) {
  // "func NAME (iparams=I fparams=P ret=K vregs=V slots=S [lowered])"
  size_t NameEnd = T.find(' ', 5);
  if (NameEnd == std::string_view::npos)
    return fail("malformed func header");
  std::string_view Name = T.substr(5, NameEnd - 5);
  std::string_view Header = T.substr(NameEnd);
  std::string_view Ret, VRegs, Slots;
  if (!headerField(Header, "ret=", Ret) ||
      !headerField(Header, "vregs=", VRegs) ||
      !headerField(Header, "slots=", Slots))
    return failTok("func header missing ret=/vregs=/slots=", T.substr(0, 4));
  unsigned V = 0, S = 0;
  if (!parseDeclaredCount(VRegs, "vregs", V) ||
      !parseDeclaredCount(Slots, "slots", S))
    return false;
  if (!FuncByName.emplace(Name, M->numFunctions()).second)
    return failTok("duplicate function '" + std::string(Name) + "'", Name);

  Function &F = M->addFunction(std::string(Name));
  F.RetKind = Ret == "int"  ? CallRetKind::Int
              : Ret == "fp" ? CallRetKind::Float
                            : CallRetKind::None;
  F.CallsLowered = Header.find(" lowered") != std::string_view::npos;
  CurF = &F;
  CurB = nullptr;
  InDecls = true;
  NumV = V;
  NumS = S;
  FpVReg.assign(NumV, false);
  FpSlot.assign(NumS, false);
  Params.clear();
  return true;
}

bool Parser::parseDeclLine(std::string_view T) {
  // "fpvregs: %3 %4", "fpslots: s0", "params: %0 %1".
  char Kind = T[2]; // 'v', 's' or 'r'
  std::string_view Rest = T.substr(T.find(':') + 1);
  constexpr std::string_view Blank = " \t\n\v\f\r";
  for (size_t B = Rest.find_first_not_of(Blank); B != std::string_view::npos;
       B = Rest.find_first_not_of(Blank, B)) {
    size_t E = Rest.find_first_of(Blank, B);
    std::string_view Tok = Rest.substr(B, E - B);
    B = E;
    unsigned Id = 0;
    if (Kind == 'r') {
      if (Tok[0] != '%' || !parseFull(Tok.substr(1), Id))
        return failTok("bad params entry", Tok);
      if (Id >= NumV)
        return fail("param vreg out of range");
      Params.push_back(Id);
    } else if (Kind == 'v') {
      if (Tok[0] != '%' || !parseFull(Tok.substr(1), Id))
        return failTok("bad fpvregs entry", Tok);
      if (Id >= NumV)
        return failTok("fpvregs id out of range", Tok);
      FpVReg[Id] = true;
    } else {
      if (Tok[0] != 's' || !parseFull(Tok.substr(1), Id))
        return failTok("bad fpslots entry", Tok);
      if (Id >= NumS)
        return failTok("fpslots id out of range", Tok);
      FpSlot[Id] = true;
    }
  }
  return true;
}

void Parser::finishDecls() {
  if (!InDecls)
    return;
  InDecls = false;
  Function &F = *CurF;
  for (unsigned V = 0; V < NumV; ++V)
    F.newVReg(FpVReg[V] ? RegClass::Float : RegClass::Int);
  for (unsigned S = 0; S < NumS; ++S)
    F.newSlot(FpSlot[S] ? RegClass::Float : RegClass::Int);
  for (unsigned V : Params)
    (F.vregClass(V) == RegClass::Float ? F.FpParamVRegs : F.IntParamVRegs)
        .push_back(V);
}

bool Parser::parseBlockHeader(std::string_view T) {
  // "bbN (NAME):"
  size_t NameStart = T.find(" (") + 2;
  size_t NameEnd = T.rfind("):");
  std::string_view BlockName =
      T.substr(NameStart, NameEnd == std::string_view::npos ||
                                  NameEnd < NameStart
                              ? std::string_view::npos
                              : NameEnd - NameStart);
  unsigned Id = 0;
  auto [P, Ec] = std::from_chars(T.data() + 2, T.data() + T.size(), Id);
  (void)P;
  Block &B = CurF->addBlock(std::string(BlockName));
  if (Ec == std::errc::result_out_of_range || B.id() != Id)
    return fail("block ids must be dense and in order");
  CurB = &B;
  return true;
}

bool Parser::parseInstr(std::string_view Body) {
  // Spill tag comment: "...  ; evict-store".
  SpillKind Spill = SpillKind::None;
  size_t Semi = Body.find("  ; ");
  if (Semi == std::string_view::npos)
    Semi = Body.find(" ; ");
  if (Semi != std::string_view::npos) {
    std::string_view Tag = Body.substr(Body.find("; ", Semi) + 2);
    auto K = spillTable().find(Tag);
    if (K == spillTable().end())
      return failTok("unknown spill tag", Tag);
    Spill = K->second;
    Body = Body.substr(0, Semi);
  }

  // Call metadata: "...  (iargs=N fargs=M)".
  uint8_t IArgs = 0, FArgs = 0;
  size_t Paren = Body.find("  (iargs=");
  if (Paren != std::string_view::npos) {
    std::string_view Meta = Body.substr(Paren), V;
    unsigned N = 0;
    if (headerField(Meta, "iargs=", V)) {
      std::from_chars(V.data(), V.data() + V.size(), N);
      IArgs = static_cast<uint8_t>(N);
    }
    N = 0;
    if (headerField(Meta, "fargs=", V)) {
      std::from_chars(V.data(), V.data() + V.size(), N);
      FArgs = static_cast<uint8_t>(N);
    }
    Body = Body.substr(0, Paren);
  }
  while (!Body.empty() && Body.back() == ' ')
    Body.remove_suffix(1);

  // "opcode op1, op2, op3".
  size_t Sp = Body.find(' ');
  std::string_view OpName = Body.substr(0, Sp);
  auto OpIt = opcodeTable().find(OpName);
  if (OpIt == opcodeTable().end())
    return failTok("unknown opcode", OpName);
  Opcode Op = OpIt->second;

  Instr I(Op);
  I.Spill = Spill;
  I.CallIntArgs = IArgs;
  I.CallFpArgs = FArgs;

  std::string_view CalleeName;
  if (Sp != std::string_view::npos) {
    std::string_view Rest = Body.substr(Sp + 1);
    for (unsigned Slot = 0; Slot < 3; ++Slot) {
      size_t Comma = Rest.find(", ");
      std::string_view Tok = Rest.substr(0, Comma);
      if (!Tok.empty() && !parseOperand(Tok, Op, Slot, I.op(Slot), CalleeName))
        return false;
      if (Comma == std::string_view::npos)
        break;
      Rest.remove_prefix(Comma + 2);
    }
  }

  CurB->append(I);
  if (Op == Opcode::Call)
    Fixups.push_back({CurF, CurB->id(), CurB->size() - 1, CalleeName, LineNo,
                      columnOf(CalleeName)});
  return true;
}

bool Parser::parseOperand(std::string_view Tok, Opcode Op, unsigned Slot,
                          Operand &Out, std::string_view &CalleeName) {
  unsigned N = 0;
  if (Tok == "_") {
    Out = Operand::none();
    return true;
  }
  if (Tok[0] == '%') {
    if (!parseFull(Tok.substr(1), N))
      return failTok("bad vreg operand", Tok);
    Out = Operand::vreg(N);
    return true;
  }
  if (Tok[0] == '$') {
    bool Fp = Tok.size() > 1 && Tok[1] == 'f';
    if (!parseFull(Tok.substr(Fp ? 2 : 1), N) ||
        N >= (Fp ? NumFpPRegs : NumIntPRegs))
      return failTok("bad preg operand", Tok);
    Out = Operand::preg(Fp ? fpReg(N) : intReg(N));
    return true;
  }
  if (Tok[0] == '[') {
    if (Tok.size() < 4 || Tok.back() != ']' || Tok[1] != 's' ||
        !parseFull(Tok.substr(2, Tok.size() - 3), N))
      return failTok("bad slot operand", Tok);
    Out = Operand::slot(N);
    return true;
  }
  if (Tok.size() > 2 && Tok[0] == 'b' && Tok[1] == 'b' && Tok[2] >= '0' &&
      Tok[2] <= '9') {
    if (!parseFull(Tok.substr(2), N))
      return failTok("bad label operand", Tok);
    Out = Operand::label(N);
    return true;
  }
  if (Tok[0] == '@') {
    if (Tok.size() < 2)
      return failTok("empty call target", Tok);
    CalleeName = Tok;
    Out = Operand::func(0); // fixed up once all functions are known
    return true;
  }
  // Numeric: a float immediate only in MovF's value slot.
  if (Op == Opcode::MovF && Slot == 1) {
    double D;
    if (!parseDouble(Tok, D))
      return failTok("bad float immediate", Tok);
    Out = Operand::fimm(D);
    return true;
  }
  int64_t V;
  if (!parseImm(Tok, V))
    return failTok("bad operand", Tok);
  Out = Operand::imm(V);
  return true;
}

/// One non-blank, non-comment line, leading spaces removed.
bool Parser::parseLine(std::string_view T) {
  // The memory image first: it is most of a printed module's bytes.
  // A "mem" or "func" line ends the function being read.
  if (startsWith(T, "mem")) {
    endFunction();
    if (startsWith(T, "mem "))
      return parseMem(T);
    if (startsWith(T, "memsize "))
      return parseMemSize(T);
    return failTok("unexpected top-level line", firstWord(T));
  }
  if (startsWith(T, "func ")) {
    endFunction();
    return parseFunctionHeader(T);
  }
  if (!CurF)
    return failTok("unexpected top-level line", firstWord(T));
  if (InDecls && (startsWith(T, "fpvregs:") || startsWith(T, "fpslots:") ||
                  startsWith(T, "params:")))
    return parseDeclLine(T);
  finishDecls();
  if (startsWith(T, "bb") && T.find(" (") != std::string_view::npos &&
      T.back() == ':')
    return parseBlockHeader(T);
  if (!CurB)
    return fail("instruction outside any block");
  return parseInstr(T);
}

ParseResult Parser::run() {
  std::string_view T;
  while (nextLine(T) && parseLine(T))
    ;
  endFunction();
  M->InitialMemory.resize(MemWords);
  if (Error.empty() && M->numFunctions() == 0)
    Error = "empty module: no functions";

  // Resolve call targets and their return-kind metadata.
  for (size_t I = 0; Error.empty() && I < Fixups.size(); ++I) {
    const CallFixup &Fx = Fixups[I];
    auto It = FuncByName.find(Fx.Callee.substr(Fx.Callee.empty() ? 0 : 1));
    if (It == FuncByName.end()) {
      failAt(Fx.Line, Fx.Col, "unknown call target",
             Fx.Callee.empty() ? "@" : Fx.Callee);
      continue;
    }
    const Function &Callee = M->function(It->second);
    Instr &Call = Fx.F->block(Fx.Block).instrs()[Fx.InstrIdx];
    Call.op(0) = Operand::func(Callee.id());
    Call.CallRet = Callee.RetKind;
  }
  if (!Error.empty()) {
    ParseResult R;
    R.Error = std::move(Error);
    R.ErrLine = ErrLine;
    R.ErrCol = ErrCol;
    R.ErrToken = std::move(ErrToken);
    return R;
  }
  return {std::move(M), "", 0, 0, ""};
}

} // namespace

ParseResult lsra::parseModule(const std::string &Text) {
  return Parser(Text).run();
}
