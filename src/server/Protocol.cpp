//===- server/Protocol.cpp ------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "target/Target.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

using namespace lsra;
using namespace lsra::server;

const char *lsra::server::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::CompileRequest:
    return "compile-request";
  case FrameType::CompileOk:
    return "compile-ok";
  case FrameType::Error:
    return "error";
  case FrameType::Rejected:
    return "rejected";
  case FrameType::DeadlineExceeded:
    return "deadline-exceeded";
  case FrameType::ShuttingDown:
    return "shutting-down";
  case FrameType::Ping:
    return "ping";
  case FrameType::Pong:
    return "pong";
  case FrameType::StatsRequest:
    return "stats-request";
  case FrameType::StatsReply:
    return "stats-reply";
  }
  return "unknown";
}

namespace {

void putU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V & 0xff));
  Out.push_back(static_cast<char>((V >> 8) & 0xff));
  Out.push_back(static_cast<char>((V >> 16) & 0xff));
  Out.push_back(static_cast<char>((V >> 24) & 0xff));
}

uint32_t getU32(const unsigned char *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

/// Split "key=value\n...\n\nBODY" into header key/value pairs and the
/// body. The blank line is mandatory (an empty body is fine).
bool splitPayload(const std::string &Payload,
                  std::vector<std::pair<std::string, std::string>> &Fields,
                  std::string &Body, std::string &Err) {
  // An empty header section is legal ("\nBODY"): typed error responses may
  // carry no key=value lines at all.
  if (!Payload.empty() && Payload[0] == '\n') {
    Body = Payload.substr(1);
    return true;
  }
  size_t Sep = Payload.find("\n\n");
  if (Sep == std::string::npos) {
    Err = "payload missing blank-line header terminator";
    return false;
  }
  Body = Payload.substr(Sep + 2);
  std::istringstream Head(Payload.substr(0, Sep));
  std::string Line;
  while (std::getline(Head, Line)) {
    if (Line.empty())
      continue;
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos) {
      Err = "malformed header line '" + Line + "'";
      return false;
    }
    Fields.emplace_back(Line.substr(0, Eq), Line.substr(Eq + 1));
  }
  return true;
}

uint64_t toU64(const std::string &V) {
  return std::strtoull(V.c_str(), nullptr, 10);
}

} // namespace

std::string lsra::server::encodeFrameHeader(uint32_t PayloadLen,
                                            uint32_t RequestId,
                                            FrameType Type) {
  std::string H;
  H.reserve(FrameHeaderBytes);
  putU32(H, FrameMagic);
  H.push_back(static_cast<char>(ProtocolVersion));
  putU32(H, PayloadLen);
  putU32(H, RequestId);
  H.push_back(static_cast<char>(Type));
  return H;
}

bool lsra::server::decodeFrameHeader(
    const unsigned char Header[FrameHeaderBytes], uint32_t &PayloadLen,
    uint32_t &RequestId, FrameType &Type, std::string &Err) {
  if (getU32(Header) != FrameMagic) {
    Err = "bad frame magic";
    return false;
  }
  // Parse the remaining fields before the version check: a mismatched
  // frame's request id is what lets the server send a typed Error reply.
  uint8_t Version = Header[4];
  PayloadLen = getU32(Header + 5);
  RequestId = getU32(Header + 9);
  uint8_t T = Header[13];
  if (Version != ProtocolVersion) {
    Err = std::string(VersionMismatchPrefix) + ": got " +
          std::to_string(Version) + ", want " +
          std::to_string(ProtocolVersion);
    return false;
  }
  if (T < static_cast<uint8_t>(FrameType::CompileRequest) ||
      T > static_cast<uint8_t>(FrameType::StatsReply)) {
    Err = "unknown frame type " + std::to_string(T);
    return false;
  }
  if (PayloadLen > MaxFramePayload) {
    Err = "frame payload too large (" + std::to_string(PayloadLen) + " bytes)";
    return false;
  }
  Type = static_cast<FrameType>(T);
  return true;
}

std::string lsra::server::encodeStatsRequest(const StatsRequest &R) {
  return "format=" + R.Format + "\n\n";
}

bool lsra::server::decodeStatsRequest(const std::string &Payload,
                                      StatsRequest &Out, std::string &Err) {
  std::vector<std::pair<std::string, std::string>> Fields;
  std::string Body;
  if (!splitPayload(Payload, Fields, Body, Err))
    return false;
  for (const auto &[K, V] : Fields) {
    if (K == "format")
      Out.Format = V;
    else {
      Err = "unknown stats-request field '" + K + "'";
      return false;
    }
  }
  if (Out.Format != "json" && Out.Format != "prom" && Out.Format != "text") {
    Err = "unknown stats format '" + Out.Format + "'";
    return false;
  }
  return true;
}

std::string lsra::server::encodeCompileRequest(const CompileRequest &R) {
  std::ostringstream OS;
  OS << "allocator=" << R.Allocator << "\n";
  if (R.Regs)
    OS << "regs=" << R.Regs << "\n";
  if (R.Cleanup)
    OS << "cleanup=1\n";
  if (R.Run)
    OS << "run=1\n";
  if (R.DeadlineMs)
    OS << "deadline_ms=" << R.DeadlineMs << "\n";
  if (R.NoCache)
    OS << "no_cache=1\n";
  OS << "\n" << R.IRText;
  return OS.str();
}

bool lsra::server::decodeCompileRequest(const std::string &Payload,
                                        CompileRequest &Out,
                                        std::string &Err) {
  std::vector<std::pair<std::string, std::string>> Fields;
  if (!splitPayload(Payload, Fields, Out.IRText, Err))
    return false;
  for (const auto &[K, V] : Fields) {
    if (K == "allocator")
      Out.Allocator = V;
    else if (K == "regs") {
      if (!parseRegLimit(V, Out.Regs, Err))
        return false;
    } else if (K == "cleanup")
      Out.Cleanup = V == "1";
    else if (K == "run")
      Out.Run = V == "1";
    else if (K == "deadline_ms")
      Out.DeadlineMs = static_cast<uint32_t>(toU64(V));
    else if (K == "no_cache")
      Out.NoCache = V == "1";
    else {
      Err = "unknown request field '" + K + "'";
      return false;
    }
  }
  return true;
}

std::string lsra::server::encodeCompileResponse(const CompileResponse &R) {
  std::ostringstream OS;
  if (R.Status == FrameType::CompileOk) {
    OS << "allocator=" << R.Allocator << "\n"
       << "candidates=" << R.Candidates << "\n"
       << "spilled=" << R.Spilled << "\n"
       << "static_spills=" << R.StaticSpills << "\n"
       << "coalesced=" << R.Coalesced << "\n"
       << "splits=" << R.Splits << "\n";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6f", R.AllocSeconds);
    OS << "alloc_s=" << Buf << "\n";
    if (R.Cached)
      OS << "cached=1\n";
    if (R.Merged)
      OS << "merged=1\n";
    OS << "queue_us=" << R.QueueUs << "\n";
    if (R.HasRun)
      OS << "dyn_instrs=" << R.DynInstrs << "\n"
         << "cycles=" << R.Cycles << "\n"
         << "dyn_spills=" << R.DynSpills << "\n"
         << "ret=" << R.ReturnValue << "\n";
    OS << "\n" << R.IRText;
    return OS.str();
  }
  if (R.ErrLine)
    OS << "err_line=" << R.ErrLine << "\n";
  if (R.ErrCol)
    OS << "err_col=" << R.ErrCol << "\n";
  if (!R.ErrToken.empty())
    OS << "err_token=" << R.ErrToken << "\n";
  if (R.QueueUs)
    OS << "queue_us=" << R.QueueUs << "\n";
  OS << "\n" << R.Message;
  return OS.str();
}

void FrameDecoder::append(const char *Data, size_t N, int64_t NowNs) {
  // Compact lazily: only when the consumed prefix dominates the buffer,
  // so steady-state appends are O(bytes) amortized.
  if (Pos > 4096 && Pos > Buf.size() / 2) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  if (Pos == Buf.size())
    FrontNs = NowNs; // the next frame starts in this read
  LastAppendAt = Buf.size();
  LastAppendNs = NowNs;
  Buf.append(Data, N);
}

FrameDecoder::Status FrameDecoder::next(Frame &Out) {
  if (Broken) {
    Out.Err = "frame stream broken";
    return Status::Error;
  }
  if (Buf.size() - Pos < FrameHeaderBytes)
    return Status::NeedMore;
  const unsigned char *H =
      reinterpret_cast<const unsigned char *>(Buf.data() + Pos);
  uint32_t PayloadLen = 0;
  Out = Frame();
  std::string Err;
  if (!decodeFrameHeader(H, PayloadLen, Out.RequestId, Out.Type, Err)) {
    Broken = true;
    Out.Err = std::move(Err);
    Out.VersionMismatch =
        Out.Err.compare(0, std::strlen(VersionMismatchPrefix),
                        VersionMismatchPrefix) == 0;
    return Status::Error;
  }
  if (Buf.size() - Pos < FrameHeaderBytes + PayloadLen)
    return Status::NeedMore;
  Out.Payload.assign(Buf, Pos + FrameHeaderBytes, PayloadLen);
  Out.FirstByteNs = FrontNs;
  Pos += FrameHeaderBytes + PayloadLen;
  // Frames are drained after each append, so a frame left over begins in
  // the last read.
  if (Pos >= LastAppendAt)
    FrontNs = LastAppendNs;
  if (Pos == Buf.size()) {
    Buf.clear();
    Pos = 0;
  }
  return Status::Frame;
}

bool lsra::server::decodeCompileResponse(FrameType T,
                                         const std::string &Payload,
                                         CompileResponse &Out,
                                         std::string &Err) {
  Out = CompileResponse();
  Out.Status = T;
  std::vector<std::pair<std::string, std::string>> Fields;
  std::string Body;
  if (!splitPayload(Payload, Fields, Body, Err))
    return false;
  if (T != FrameType::CompileOk) {
    Out.Message = Body;
    for (const auto &[K, V] : Fields) {
      if (K == "err_line")
        Out.ErrLine = static_cast<unsigned>(toU64(V));
      else if (K == "err_col")
        Out.ErrCol = static_cast<unsigned>(toU64(V));
      else if (K == "err_token")
        Out.ErrToken = V;
      else if (K == "queue_us")
        Out.QueueUs = toU64(V);
    }
    return true;
  }
  Out.IRText = std::move(Body);
  for (const auto &[K, V] : Fields) {
    if (K == "allocator")
      Out.Allocator = V;
    else if (K == "candidates")
      Out.Candidates = static_cast<unsigned>(toU64(V));
    else if (K == "spilled")
      Out.Spilled = static_cast<unsigned>(toU64(V));
    else if (K == "static_spills")
      Out.StaticSpills = static_cast<unsigned>(toU64(V));
    else if (K == "coalesced")
      Out.Coalesced = static_cast<unsigned>(toU64(V));
    else if (K == "splits")
      Out.Splits = static_cast<unsigned>(toU64(V));
    else if (K == "alloc_s")
      Out.AllocSeconds = std::strtod(V.c_str(), nullptr);
    else if (K == "cached")
      Out.Cached = V == "1";
    else if (K == "merged")
      Out.Merged = V == "1";
    else if (K == "queue_us")
      Out.QueueUs = toU64(V);
    else if (K == "dyn_instrs") {
      Out.HasRun = true;
      Out.DynInstrs = toU64(V);
    } else if (K == "cycles")
      Out.Cycles = toU64(V);
    else if (K == "dyn_spills")
      Out.DynSpills = toU64(V);
    else if (K == "ret")
      Out.ReturnValue = std::strtoll(V.c_str(), nullptr, 10);
    else {
      Err = "unknown response field '" + K + "'";
      return false;
    }
  }
  return true;
}
