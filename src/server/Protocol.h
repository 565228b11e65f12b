//===- server/Protocol.h - Framed compile-service wire protocol -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the compile server: length-prefixed frames whose
/// payload reuses the textual IR (ir/Printer emits it, ir/Parser reads it
/// back) so the wire format is exactly the format every test fixture and
/// CLI already speaks.
///
/// Frame layout (all integers little-endian):
///
///   +0  u32  magic       'LSRA' (0x4153524c) — cheap desync/garbage check
///   +4  u8   version     ProtocolVersion — reject mismatches explicitly
///   +5  u32  payload len  bytes following the 14-byte header
///   +9  u32  request id   echoed verbatim in the response
///   +13 u8   type         FrameType
///   +14 ...  payload
///
/// The version byte exists so header/payload fields (like the cache
/// controls) can change shape without silently corrupting old peers: a
/// server answers a version-mismatched frame with a typed Error frame
/// (the id is still readable) and closes; bad magic just closes.
///
/// Compile request/response payloads are "key=value" header lines, a blank
/// line, then a body: the module IR text for CompileRequest/CompileOk, the
/// error message for the typed error responses. Every request gets exactly
/// one response frame carrying its request id; error conditions map to
/// distinct frame types (Rejected = load shed, DeadlineExceeded, Error =
/// malformed/unparsable payload) so clients never scrape error strings.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_PROTOCOL_H
#define LSRA_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>

namespace lsra {
namespace server {

/// 'LSRA' in little-endian byte order.
constexpr uint32_t FrameMagic = 0x4153524cu;

/// Wire-protocol version. Bump when the header or the defined payload
/// fields change incompatibly. v2 added the StatsRequest/StatsReply
/// introspection frames and the `queue_us` response field (decoders
/// reject unknown fields, so both are incompatible additions). v3 added
/// the `merged` response field and pipelining semantics: a client may
/// keep many requests in flight on one connection, and the server may
/// answer them out of order (responses match requests by id, never by
/// position). v4 added the `tier` request and response fields of tiered
/// serving; v5 removed them again, so a `tier` field is now an unknown
/// field and a typed error. v6 removed the load-test field that made a
/// worker sleep before compiling, so any client could stall one (tests now
/// hold a worker through ServerOptions::BeforeCompile), and bounds `regs`
/// to 0 or 3..25.
constexpr uint8_t ProtocolVersion = 6;

/// Frame header size on the wire (magic + version + len + id + type).
constexpr uint32_t FrameHeaderBytes = 14;

/// Error-string prefix decodeFrameHeader uses for a version mismatch; the
/// server matches it to reply with a typed Error frame instead of just
/// dropping the connection.
constexpr const char *VersionMismatchPrefix = "protocol version mismatch";

/// Upper bound on a single frame payload; larger frames indicate a broken
/// or hostile peer and close the connection.
constexpr uint32_t MaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  CompileRequest = 1,   ///< client → server: compile this module
  CompileOk = 2,        ///< allocated IR + statistics
  Error = 3,            ///< malformed payload / parse / verify failure
  Rejected = 4,         ///< admission queue full (load shed; retry later)
  DeadlineExceeded = 5, ///< request expired before a worker got to it
  ShuttingDown = 6,     ///< server is draining; no new work accepted
  Ping = 7,             ///< client → server liveness probe
  Pong = 8,             ///< server → client probe reply
  StatsRequest = 9,     ///< client → server: telemetry snapshot, please
  StatsReply = 10,      ///< rendered MetricsSnapshot (json/prom/text)
};

const char *frameTypeName(FrameType T);

/// Everything a client can ask of the compile service. Defaults mirror
/// `lsra run`: second-chance binpacking on the full register file.
struct CompileRequest {
  std::string Allocator = "binpack"; ///< parseAllocator() name
  unsigned Regs = 0;       ///< per-class register limit (parseRegLimit)
  bool Cleanup = false;    ///< run the spill-cleanup pass
  bool Run = false;        ///< execute on the VM, report dynamic counts
  uint32_t DeadlineMs = 0; ///< relative deadline (0 = none)
  bool NoCache = false;    ///< bypass the server's compile cache
  std::string IRText;      ///< the module, in textual IR form
};

struct CompileResponse {
  FrameType Status = FrameType::CompileOk;
  std::string Message; ///< diagnostic for non-OK responses

  // Parse-error position (Status == Error, when the payload failed to
  // parse as IR; 0/empty when not applicable).
  unsigned ErrLine = 0;
  unsigned ErrCol = 0;
  std::string ErrToken;

  // Allocation statistics (Status == CompileOk).
  std::string Allocator;
  unsigned Candidates = 0;
  unsigned Spilled = 0;
  unsigned StaticSpills = 0;
  unsigned Coalesced = 0;
  unsigned Splits = 0;
  double AllocSeconds = 0;
  bool Cached = false;   ///< served from the server's compile cache
  bool Merged = false;   ///< piggybacked on an identical in-flight compile
  uint64_t QueueUs = 0;  ///< server-side admission-queue wait (µs)

  // Dynamic execution statistics (CompileOk with CompileRequest::Run).
  bool HasRun = false;
  uint64_t DynInstrs = 0;
  uint64_t Cycles = 0;
  uint64_t DynSpills = 0;
  int64_t ReturnValue = 0;

  std::string IRText; ///< allocated module (Status == CompileOk)

  bool ok() const { return Status == FrameType::CompileOk; }
};

/// A telemetry-snapshot request. The server renders the snapshot itself
/// (clients stay free of JSON machinery); the StatsReply payload is the
/// rendered document, verbatim.
struct StatsRequest {
  std::string Format = "json"; ///< "json", "prom", or "text"
};

std::string encodeStatsRequest(const StatsRequest &R);
bool decodeStatsRequest(const std::string &Payload, StatsRequest &Out,
                        std::string &Err);

/// Serialize \p R as a CompileRequest frame payload.
std::string encodeCompileRequest(const CompileRequest &R);

/// Parse a CompileRequest payload. Returns false (with \p Err set) on a
/// malformed header; the embedded IR text is not parsed here.
bool decodeCompileRequest(const std::string &Payload, CompileRequest &Out,
                          std::string &Err);

/// Serialize \p R as the payload for a frame of type R.Status.
std::string encodeCompileResponse(const CompileResponse &R);

/// Parse a response payload of frame type \p T.
bool decodeCompileResponse(FrameType T, const std::string &Payload,
                           CompileResponse &Out, std::string &Err);

/// Encode the 14-byte frame header for \p PayloadLen bytes (at the current
/// ProtocolVersion).
std::string encodeFrameHeader(uint32_t PayloadLen, uint32_t RequestId,
                              FrameType Type);

/// Decode a 14-byte header. False on bad magic, version mismatch, unknown
/// type, or a payload length above MaxFramePayload. On a version mismatch
/// \p Err starts with VersionMismatchPrefix and \p RequestId is still
/// filled in, so the caller can send a typed Error reply.
bool decodeFrameHeader(const unsigned char Header[FrameHeaderBytes],
                       uint32_t &PayloadLen, uint32_t &RequestId,
                       FrameType &Type, std::string &Err);

/// Incremental frame decoder for non-blocking connections: feed it
/// whatever bytes recv() produced, pull complete frames out. Unlike the
/// blocking recvFrame() path it never waits — a frame split across any
/// number of reads (even one byte at a time) reassembles correctly.
///
/// Typical use from a read handler:
///
///   Dec.append(Buf, N);
///   FrameDecoder::Frame F;
///   while (Dec.next(F) == FrameDecoder::Status::Frame)
///     handle(F);
///   if (Dec.next(...) returned Error) → reply/close per F.Err
///
/// An Error result is sticky: the stream is desynchronized and the
/// connection must be closed (after an optional typed Error reply when
/// F.VersionMismatch made the request id readable).
class FrameDecoder {
public:
  enum class Status : uint8_t {
    NeedMore, ///< no complete frame buffered yet
    Frame,    ///< one frame decoded into the out-param
    Error,    ///< stream is broken; close the connection
  };

  struct Frame {
    uint32_t RequestId = 0;
    FrameType Type = FrameType::Error;
    std::string Payload;
    std::string Err;              ///< Status::Error only
    bool VersionMismatch = false; ///< Error, but the id was readable
    /// The NowNs of the append() that brought the frame's first byte.
    int64_t FirstByteNs = 0;
  };

  /// Buffer \p N raw bytes from the wire, read at steady time \p NowNs.
  /// A frame's first byte is stamped exactly when next() is drained after
  /// every append, as the read handler above does.
  void append(const char *Data, size_t N, int64_t NowNs = 0);

  /// Decode the next complete frame into \p Out.
  Status next(Frame &Out);

  /// Bytes buffered but not yet consumed (observability / tests).
  size_t buffered() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  size_t Pos = 0; ///< consumed prefix, compacted away periodically
  bool Broken = false;
  int64_t FrontNs = 0;     ///< when the byte at Pos was read
  size_t LastAppendAt = 0; ///< offset of the last append's first byte
  int64_t LastAppendNs = 0;
};

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_PROTOCOL_H
