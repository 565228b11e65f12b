//===- server/Socket.h - Frame transport over unix/TCP sockets -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin RAII layer over POSIX stream sockets. Two transports: unix-domain
/// sockets (the default — no port allocation, filesystem permissions) and
/// loopback/LAN TCP. The server and the load generator hand their fds to
/// an event loop (net/Connection.h) through release() and acceptNow().
/// The blocking whole-frame sendFrame()/recvFrame() pair in the
/// server/Protocol.h framing serves the synchronous Client, the tests and
/// lsrabench: a receive polls with a timeout before the first header byte,
/// and once a frame has started arriving it is read to completion.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_SOCKET_H
#define LSRA_SERVER_SOCKET_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>

namespace lsra {
namespace server {

/// Lift RLIMIT_NOFILE's soft limit to the hard limit, best-effort: both
/// ends of a 10k-connection load test need more fds than the usual
/// `ulimit -n 1024` default allows. Failure just leaves the old limit.
void raiseFdLimit();

/// Move-only owner of one connected stream-socket fd.
class Socket {
public:
  Socket() = default;
  explicit Socket(int Fd) : Fd(Fd) {}
  ~Socket() { close(); }

  Socket(Socket &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }

  static Socket connectUnix(const std::string &Path, std::string &Err);
  static Socket connectTcp(const std::string &Host, uint16_t Port,
                           std::string &Err);

  /// Write one complete frame (header + payload). False on any I/O error
  /// (including a peer that hung up); SIGPIPE is suppressed.
  bool sendFrame(uint32_t RequestId, FrameType Type,
                 const std::string &Payload, std::string &Err);

  enum class RecvStatus {
    Ok,      ///< one frame delivered
    Timeout, ///< nothing arrived within the timeout
    Closed,  ///< orderly EOF before a new frame began
    Error,   ///< protocol or I/O error (Err set)
  };

  /// Read one complete frame. \p TimeoutMs bounds the wait for the first
  /// header byte only (< 0 = wait forever).
  RecvStatus recvFrame(uint32_t &RequestId, FrameType &Type,
                       std::string &Payload, int TimeoutMs, std::string &Err);

  /// Switch O_NONBLOCK on or off (event-loop connections run non-blocking;
  /// the synchronous Client keeps the default blocking mode).
  bool setNonBlocking(bool On, std::string &Err);

  /// Shrink/grow the kernel send buffer (SO_SNDBUF). Used by tests to
  /// force partial writes; the kernel doubles and clamps the value, so
  /// treat it as a hint. Returns false if setsockopt failed.
  bool setSendBufferBytes(int Bytes);

  /// Detach and return the fd without closing it (ownership transfer to
  /// an event-loop connection).
  int release() {
    int F = Fd;
    Fd = -1;
    return F;
  }

  void close();

private:
  int Fd = -1;
};

/// Listening socket bound to a unix path or a TCP port.
class Listener {
public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(Listener &&O) noexcept;
  Listener &operator=(Listener &&O) noexcept;
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Bind + listen on \p Path, replacing a stale socket file if present.
  static Listener listenUnix(const std::string &Path, std::string &Err);

  /// Bind + listen on 127.0.0.1:\p Port (0 = ephemeral; see port()).
  static Listener listenTcp(uint16_t Port, std::string &Err);

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  uint16_t port() const { return Port; }
  const std::string &unixPath() const { return Path; }

  /// Non-blocking accept for event-loop use: returns an invalid Socket
  /// immediately when no connection is pending (the loop's readiness
  /// notification says when to call). The accepted fd is already in
  /// non-blocking close-on-exec mode.
  Socket acceptNow();

  /// Put the listening fd itself into non-blocking mode (required before
  /// registering it with an event loop and using acceptNow()).
  bool setNonBlocking(std::string &Err);

  /// Close the listening fd and unlink the unix socket file.
  void close();

private:
  int Fd = -1;
  uint16_t Port = 0;
  std::string Path;
};

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_SOCKET_H
