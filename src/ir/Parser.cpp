//===- ir/Parser.cpp ------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

using namespace lsra;

namespace {

/// One parsed call-target fixup: the instruction refers to a function by
/// name; ids are resolved once every function header is known.
struct CallFixup {
  Function *F;
  unsigned Block;
  unsigned InstrIdx;
  std::string Callee;
};

/// Parse \p S fully as an unsigned decimal number; false if any trailing
/// characters remain (so "%1x" or "$f" are rejected, not truncated).
bool parseFullUInt(const char *S, unsigned &Out) {
  if (*S < '0' || *S > '9')
    return false;
  char *End = nullptr;
  Out = static_cast<unsigned>(std::strtoul(S, &End, 10));
  return End != S && *End == '\0';
}

class Parser {
public:
  explicit Parser(const std::string &Text) : In(Text) {}

  ParseResult run();

private:
  std::istringstream In;
  std::unique_ptr<Module> M = std::make_unique<Module>();
  unsigned LineNo = 0;
  std::string Line;
  std::string Error;
  unsigned ErrLine = 0;
  unsigned ErrCol = 0;
  std::string ErrToken;
  std::vector<CallFixup> Fixups;
  std::map<std::string, Opcode, std::less<>> OpcodeByName;
  std::map<std::string, SpillKind, std::less<>> SpillByName;

  bool fail(const std::string &Msg) {
    if (Error.empty()) {
      ErrLine = LineNo;
      Error = "line " + std::to_string(LineNo) + ": " + Msg;
    }
    return false;
  }

  /// Failure anchored at \p Tok: records the 1-based column where the token
  /// occurs on the current line (servers turn this into structured error
  /// responses; "line N, col C: msg (near 'TOK')").
  bool failTok(const std::string &Msg, const std::string &Tok) {
    if (!Error.empty())
      return false;
    ErrLine = LineNo;
    ErrToken = Tok;
    size_t P = Tok.empty() ? std::string::npos : Line.find(Tok);
    if (P != std::string::npos)
      ErrCol = static_cast<unsigned>(P) + 1;
    Error = "line " + std::to_string(LineNo);
    if (ErrCol)
      Error += ", col " + std::to_string(ErrCol);
    Error += ": " + Msg;
    if (!Tok.empty())
      Error += " (near '" + Tok + "')";
    return false;
  }

  /// A `mem` address or `memsize` at or above MaxMemoryWords; the value
  /// token starts at \p Pos of the trimmed line \p L.
  bool failMemTooLarge(const char *What, const std::string &L, size_t Pos) {
    return failTok(std::string(What) + " out of range (limit " +
                       std::to_string(MaxMemoryWords) + " words)",
                   L.substr(Pos, L.find(' ', Pos) - Pos));
  }

  bool nextLine() {
    while (std::getline(In, Line)) {
      ++LineNo;
      // Trim trailing whitespace; skip blank lines and comment lines (";"
      // first — corpus files carry "; oracle: ..." replay headers).
      while (!Line.empty() && (Line.back() == ' ' || Line.back() == '\r'))
        Line.pop_back();
      size_t First = Line.find_first_not_of(' ');
      if (First != std::string::npos && Line[First] != ';')
        return true;
    }
    return false;
  }

  void buildTables() {
    for (unsigned I = 0; I < NumOpcodes; ++I) {
      Opcode Op = static_cast<Opcode>(I);
      OpcodeByName[opcodeName(Op)] = Op;
    }
    const SpillKind Kinds[] = {
        SpillKind::EvictLoad,     SpillKind::EvictStore,
        SpillKind::EvictMove,     SpillKind::ResolveLoad,
        SpillKind::ResolveStore,  SpillKind::ResolveMove,
        SpillKind::CalleeSave,    SpillKind::CalleeRestore,
    };
    for (SpillKind K : Kinds)
      SpillByName[spillKindName(K)] = K;
  }

  /// Extract "key=value" from a header body like
  /// "iparams=2 fparams=0 ret=int vregs=9 slots=0 lowered".
  static bool headerField(const std::string &Body, const char *Key,
                          std::string &Out) {
    std::string Needle = std::string(Key) + "=";
    size_t P = Body.find(Needle);
    if (P == std::string::npos)
      return false;
    size_t S = P + Needle.size();
    size_t E = Body.find_first_of(" )", S);
    Out = Body.substr(S, E == std::string::npos ? E : E - S);
    return true;
  }

  bool parseFunctionHeader(const std::string &L, bool Prescan);
  bool parseFunctionBody(Function &F);
  bool parseInstr(Function &F, Block &B, const std::string &Body);
  bool parseOperand(const std::string &Tok, Opcode Op, unsigned Slot,
                    Operand &Out, std::string *CalleeName);

  bool parseTopLevel(bool Prescan);
};

bool Parser::parseFunctionHeader(const std::string &L, bool Prescan) {
  // "func NAME (iparams=I fparams=P ret=K vregs=V slots=S [lowered])"
  size_t NameStart = 5;
  size_t NameEnd = L.find(' ', NameStart);
  if (NameEnd == std::string::npos)
    return fail("malformed func header");
  std::string Name = L.substr(NameStart, NameEnd - NameStart);
  if (Prescan) {
    M->addFunction(Name);
    return true;
  }
  Function *F = M->findFunction(Name);
  if (!F)
    return fail("internal: function not prescanned");
  std::string Ret, VRegs, Slots;
  if (!headerField(L, "ret", Ret) || !headerField(L, "vregs", VRegs) ||
      !headerField(L, "slots", Slots))
    return failTok("func header missing ret=/vregs=/slots=", "func");
  F->RetKind = Ret == "int"   ? CallRetKind::Int
               : Ret == "fp"  ? CallRetKind::Float
                              : CallRetKind::None;
  F->CallsLowered = L.find(" lowered") != std::string::npos;

  unsigned NumV = static_cast<unsigned>(std::strtoul(VRegs.c_str(), nullptr, 10));
  unsigned NumS = static_cast<unsigned>(std::strtoul(Slots.c_str(), nullptr, 10));

  // Optional declaration lines follow, before the first block header.
  std::vector<bool> FpVReg(NumV, false), FpSlot(NumS, false);
  std::vector<unsigned> Params;
  std::streampos Mark = In.tellg();
  unsigned MarkLine = LineNo;
  while (nextLine()) {
    std::string Trimmed = Line.substr(Line.find_first_not_of(' '));
    if (Trimmed.rfind("fpvregs:", 0) == 0 || Trimmed.rfind("fpslots:", 0) == 0 ||
        Trimmed.rfind("params:", 0) == 0) {
      std::istringstream SS(Trimmed.substr(Trimmed.find(':') + 1));
      std::string Tok;
      while (SS >> Tok) {
        unsigned Id = 0;
        if (Trimmed[0] == 'p') { // params
          if (Tok[0] != '%' || !parseFullUInt(Tok.c_str() + 1, Id))
            return failTok("bad params entry", Tok);
          Params.push_back(Id);
        } else if (Trimmed.rfind("fpvregs", 0) == 0) {
          if (Tok[0] != '%' || !parseFullUInt(Tok.c_str() + 1, Id))
            return failTok("bad fpvregs entry", Tok);
          if (Id >= NumV)
            return failTok("fpvregs id out of range", Tok);
          FpVReg[Id] = true;
        } else {
          if (Tok[0] != 's' || !parseFullUInt(Tok.c_str() + 1, Id))
            return failTok("bad fpslots entry", Tok);
          if (Id >= NumS)
            return failTok("fpslots id out of range", Tok);
          FpSlot[Id] = true;
        }
      }
      Mark = In.tellg();
      MarkLine = LineNo;
      continue;
    }
    // Not a declaration: rewind so the body parser sees this line.
    In.seekg(Mark);
    LineNo = MarkLine;
    break;
  }

  for (unsigned V = 0; V < NumV; ++V)
    F->newVReg(FpVReg[V] ? RegClass::Float : RegClass::Int);
  for (unsigned S = 0; S < NumS; ++S)
    F->newSlot(FpSlot[S] ? RegClass::Float : RegClass::Int);
  for (unsigned V : Params) {
    if (V >= NumV)
      return fail("param vreg out of range");
    (F->vregClass(V) == RegClass::Float ? F->FpParamVRegs : F->IntParamVRegs)
        .push_back(V);
  }
  return parseFunctionBody(*F);
}

bool Parser::parseFunctionBody(Function &F) {
  Block *Cur = nullptr;
  while (true) {
    std::streampos Mark = In.tellg();
    unsigned MarkLine = LineNo;
    if (!nextLine())
      return true; // end of input ends the function
    size_t First = Line.find_first_not_of(' ');
    std::string Trimmed = Line.substr(First);
    if (Trimmed.rfind("func ", 0) == 0 || Trimmed.rfind("mem", 0) == 0) {
      In.seekg(Mark);
      LineNo = MarkLine;
      return true; // next top-level entity
    }
    if (Trimmed.rfind("bb", 0) == 0 && Trimmed.find(" (") != std::string::npos &&
        Trimmed.back() == ':') {
      size_t NameStart = Trimmed.find(" (") + 2;
      size_t NameEnd = Trimmed.rfind("):");
      std::string BlockName =
          Trimmed.substr(NameStart, NameEnd - NameStart);
      unsigned Id =
          static_cast<unsigned>(std::strtoul(Trimmed.c_str() + 2, nullptr, 10));
      Block &B = F.addBlock(BlockName);
      if (B.id() != Id)
        return fail("block ids must be dense and in order");
      Cur = &B;
      continue;
    }
    if (!Cur)
      return fail("instruction outside any block");
    if (!parseInstr(F, *Cur, Trimmed))
      return false;
  }
}

bool Parser::parseInstr(Function &F, Block &B, const std::string &BodyIn) {
  std::string Body = BodyIn;

  // Spill tag comment: "...  ; evict-store".
  SpillKind Spill = SpillKind::None;
  size_t Semi = Body.find("  ; ");
  if (Semi == std::string::npos)
    Semi = Body.find(" ; ");
  if (Semi != std::string::npos) {
    std::string Tag = Body.substr(Body.find("; ", Semi) + 2);
    auto It = SpillByName.find(Tag);
    if (It == SpillByName.end())
      return failTok("unknown spill tag", Tag);
    Spill = It->second;
    Body = Body.substr(0, Semi);
  }

  // Call metadata: "...  (iargs=N fargs=M)".
  uint8_t IArgs = 0, FArgs = 0;
  size_t Paren = Body.find("  (iargs=");
  if (Paren != std::string::npos) {
    std::string Meta = Body.substr(Paren);
    std::string V;
    if (headerField(Meta, "iargs", V))
      IArgs = static_cast<uint8_t>(std::strtoul(V.c_str(), nullptr, 10));
    if (headerField(Meta, "fargs", V))
      FArgs = static_cast<uint8_t>(std::strtoul(V.c_str(), nullptr, 10));
    Body = Body.substr(0, Paren);
  }
  while (!Body.empty() && Body.back() == ' ')
    Body.pop_back();

  // "opcode op1, op2, op3".
  size_t Sp = Body.find(' ');
  std::string OpName = Body.substr(0, Sp);
  auto OpIt = OpcodeByName.find(OpName);
  if (OpIt == OpcodeByName.end())
    return failTok("unknown opcode", OpName);
  Opcode Op = OpIt->second;

  Instr I(Op);
  I.Spill = Spill;
  I.CallIntArgs = IArgs;
  I.CallFpArgs = FArgs;

  std::string CalleeName;
  if (Sp != std::string::npos) {
    std::string Rest = Body.substr(Sp + 1);
    unsigned Slot = 0;
    size_t Pos = 0;
    while (Pos <= Rest.size() && Slot < 3) {
      size_t Comma = Rest.find(", ", Pos);
      std::string Tok = Rest.substr(
          Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
      if (!Tok.empty()) {
        Operand O;
        if (!parseOperand(Tok, Op, Slot, O, &CalleeName))
          return false;
        I.op(Slot) = O;
      }
      ++Slot;
      if (Comma == std::string::npos)
        break;
      Pos = Comma + 2;
    }
  }

  B.append(I);
  if (Op == Opcode::Call)
    Fixups.push_back({&F, B.id(), B.size() - 1, CalleeName});
  return true;
}

bool Parser::parseOperand(const std::string &Tok, Opcode Op, unsigned Slot,
                          Operand &Out, std::string *CalleeName) {
  unsigned N = 0;
  if (Tok == "_") {
    Out = Operand::none();
    return true;
  }
  if (Tok[0] == '%') {
    if (!parseFullUInt(Tok.c_str() + 1, N))
      return failTok("bad vreg operand", Tok);
    Out = Operand::vreg(N);
    return true;
  }
  if (Tok[0] == '$') {
    if (Tok.size() > 1 && Tok[1] == 'f') {
      if (!parseFullUInt(Tok.c_str() + 2, N))
        return failTok("bad preg operand", Tok);
      Out = Operand::preg(fpReg(N));
    } else {
      if (!parseFullUInt(Tok.c_str() + 1, N))
        return failTok("bad preg operand", Tok);
      Out = Operand::preg(intReg(N));
    }
    return true;
  }
  if (Tok[0] == '[') {
    std::string Inner = Tok.substr(1, Tok.size() >= 2 && Tok.back() == ']'
                                          ? Tok.size() - 2
                                          : std::string::npos);
    if (Tok.back() != ']' || Inner.size() < 2 || Inner[0] != 's' ||
        !parseFullUInt(Inner.c_str() + 1, N))
      return failTok("bad slot operand", Tok);
    Out = Operand::slot(N);
    return true;
  }
  if (Tok.rfind("bb", 0) == 0 && Tok.size() > 2 && Tok[2] >= '0' &&
      Tok[2] <= '9') {
    if (!parseFullUInt(Tok.c_str() + 2, N))
      return failTok("bad label operand", Tok);
    Out = Operand::label(N);
    return true;
  }
  if (Tok[0] == '@') {
    if (Tok.size() < 2)
      return failTok("empty call target", Tok);
    *CalleeName = Tok.substr(1);
    Out = Operand::func(0); // fixed up once all functions are known
    return true;
  }
  // Numeric: a float immediate only in MovF's value slot.
  char *End = nullptr;
  if (Op == Opcode::MovF && Slot == 1) {
    double D = std::strtod(Tok.c_str(), &End);
    if (End == Tok.c_str() || *End != '\0')
      return failTok("bad float immediate", Tok);
    Out = Operand::fimm(D);
    return true;
  }
  long long V = std::strtoll(Tok.c_str(), &End, 10);
  if (End == Tok.c_str() || *End != '\0')
    return failTok("bad operand", Tok);
  Out = Operand::imm(V);
  return true;
}

bool Parser::parseTopLevel(bool Prescan) {
  while (nextLine()) {
    size_t First = Line.find_first_not_of(' ');
    std::string Trimmed = Line.substr(First);
    if (Trimmed.rfind("mem ", 0) == 0) {
      if (Prescan)
        continue;
      unsigned long long Addr = 0, Val = 0;
      if (std::sscanf(Trimmed.c_str(), "mem %llu 0x%llx", &Addr, &Val) != 2)
        return fail("bad mem line");
      if (Addr >= MaxMemoryWords)
        return failMemTooLarge("mem address", Trimmed, 4);
      M->reserveMemory(static_cast<unsigned>(Addr) + 1);
      M->InitialMemory[Addr] = Val;
      continue;
    }
    if (Trimmed.rfind("memsize ", 0) == 0) {
      if (Prescan)
        continue;
      unsigned long long Words =
          std::strtoull(Trimmed.c_str() + 8, nullptr, 10);
      if (Words >= MaxMemoryWords)
        return failMemTooLarge("memsize", Trimmed, 8);
      M->reserveMemory(static_cast<unsigned>(Words));
      continue;
    }
    if (Trimmed.rfind("func ", 0) == 0) {
      if (Prescan) {
        if (!parseFunctionHeader(Trimmed, /*Prescan=*/true))
          return false;
        continue;
      }
      if (!parseFunctionHeader(Trimmed, /*Prescan=*/false))
        return false;
      continue;
    }
    if (Prescan)
      continue; // bodies are skipped during the prescan
    return failTok("unexpected top-level line",
                   Trimmed.substr(0, Trimmed.find(' ')));
  }
  return true;
}

ParseResult Parser::run() {
  buildTables();
  auto MakeError = [this]() {
    ParseResult R;
    R.Error = Error;
    R.ErrLine = ErrLine;
    R.ErrCol = ErrCol;
    R.ErrToken = ErrToken;
    return R;
  };
  // Pass 1: collect function names so call targets can be resolved.
  if (!parseTopLevel(/*Prescan=*/true))
    return MakeError();
  // Pass 2: full parse.
  In.clear();
  In.seekg(0);
  LineNo = 0;
  if (!parseTopLevel(/*Prescan=*/false))
    return MakeError();
  if (M->numFunctions() == 0) {
    Error = "empty module: no functions";
    return MakeError();
  }

  // Resolve call targets and their return-kind metadata.
  for (const CallFixup &Fx : Fixups) {
    Function *Callee = M->findFunction(Fx.Callee);
    if (!Callee) {
      Error = "unknown call target '@" + Fx.Callee + "'";
      ErrToken = "@" + Fx.Callee;
      return MakeError();
    }
    Instr &I = Fx.F->block(Fx.Block).instrs()[Fx.InstrIdx];
    I.op(0) = Operand::func(Callee->id());
    I.CallRet = Callee->RetKind;
  }
  return {std::move(M), "", 0, 0, ""};
}

} // namespace

ParseResult lsra::parseModule(const std::string &Text) {
  return Parser(Text).run();
}
