//===- server/Client.h - Synchronous compile-service client ----*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Blocking client for the compile server: connect once, then issue
/// compile() / ping() / stats() calls. One outstanding request per Client
/// at a time; the response is matched to the request by the echoed
/// request id. `lsra stats`/`top`, the load generator's liveness probe,
/// the tests and lsrabench use it; the load generator itself drives
/// non-blocking connections from an event loop (server/LoadGen.h).
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_CLIENT_H
#define LSRA_SERVER_CLIENT_H

#include "server/Protocol.h"
#include "server/Socket.h"

#include <cstdint>
#include <string>

namespace lsra {
namespace server {

class Client {
public:
  Client() = default;

  static Client connectUnix(const std::string &Path, std::string &Err);
  static Client connectTcp(const std::string &Host, uint16_t Port,
                           std::string &Err);

  bool valid() const { return Sock.valid(); }

  /// Send \p Req and block for its response. False (with \p Err) on
  /// transport failure or timeout; a typed error *response* (Rejected,
  /// DeadlineExceeded, ...) is a successful call with Out.Status set.
  /// \p TimeoutMs bounds the wait for the response (< 0 = forever).
  bool compile(const CompileRequest &Req, CompileResponse &Out,
               std::string &Err, int TimeoutMs = -1);

  /// Liveness probe; false on transport failure or timeout.
  bool ping(std::string &Err, int TimeoutMs = -1);

  /// Fetch a telemetry snapshot rendered as \p Format ("json", "prom", or
  /// "text"); the reply payload lands verbatim in \p Out.
  bool stats(const std::string &Format, std::string &Out, std::string &Err,
             int TimeoutMs = -1);

  void close() { Sock.close(); }

private:
  /// Send one frame and wait for the reply echoing its id, skipping
  /// replies to earlier, abandoned requests.
  bool roundTrip(FrameType Type, const std::string &Payload,
                 FrameType &ReplyType, std::string &Reply, int TimeoutMs,
                 std::string &Err);

  Socket Sock;
  uint32_t NextId = 1;
};

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_CLIENT_H
