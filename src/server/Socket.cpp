//===- server/Socket.cpp --------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lsra;
using namespace lsra::server;

namespace {

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// Write all of [Buf, Buf+N); retries on EINTR, suppresses SIGPIPE, and
/// waits for writability on EAGAIN so the same path is correct for
/// sockets in non-blocking mode or with a tiny SO_SNDBUF: a short write
/// resumes exactly where it stopped instead of tearing the frame.
bool writeAll(int Fd, const char *Buf, size_t N, std::string &Err) {
  while (N > 0) {
    ssize_t W = ::send(Fd, Buf, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        struct pollfd P = {Fd, POLLOUT, 0};
        int Rc = ::poll(&P, 1, -1);
        if (Rc < 0 && errno != EINTR) {
          Err = errnoString("poll(out)");
          return false;
        }
        if (Rc > 0 && (P.revents & (POLLERR | POLLNVAL))) {
          Err = "socket error while waiting to write";
          return false;
        }
        continue;
      }
      Err = errnoString("send");
      return false;
    }
    Buf += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

/// Read exactly N bytes; false on EOF or error.
bool readAll(int Fd, char *Buf, size_t N, std::string &Err) {
  while (N > 0) {
    ssize_t R = ::recv(Fd, Buf, N, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      Err = errnoString("recv");
      return false;
    }
    if (R == 0) {
      Err = "connection closed mid-frame";
      return false;
    }
    Buf += R;
    N -= static_cast<size_t>(R);
  }
  return true;
}

/// Wait for readability. Returns 1 ready, 0 timeout, -1 error/hangup-with-
/// nothing-to-read (POLLHUP with pending data still reports POLLIN).
int pollIn(int Fd, int TimeoutMs) {
  struct pollfd P = {Fd, POLLIN, 0};
  while (true) {
    int Rc = ::poll(&P, 1, TimeoutMs);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (Rc == 0)
      return 0;
    return (P.revents & (POLLIN | POLLHUP)) ? 1 : -1;
  }
}

} // namespace

void lsra::server::raiseFdLimit() {
  struct rlimit RL;
  if (::getrlimit(RLIMIT_NOFILE, &RL) != 0)
    return;
  if (RL.rlim_cur >= RL.rlim_max)
    return;
  RL.rlim_cur = RL.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &RL);
}

Socket &Socket::operator=(Socket &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool Socket::setNonBlocking(bool On, std::string &Err) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0) {
    Err = errnoString("fcntl(F_GETFL)");
    return false;
  }
  int NewFlags = On ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  if (::fcntl(Fd, F_SETFL, NewFlags) != 0) {
    Err = errnoString("fcntl(F_SETFL)");
    return false;
  }
  return true;
}

bool Socket::setSendBufferBytes(int Bytes) {
  return ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Bytes, sizeof(Bytes)) == 0;
}

Socket Socket::connectUnix(const std::string &Path, std::string &Err) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoString("socket");
    return Socket();
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    Err = "unix socket path too long: " + Path;
    return Socket();
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    Err = errnoString("connect") + " (" + Path + ")";
    ::close(Fd);
    return Socket();
  }
  return Socket(Fd);
}

Socket Socket::connectTcp(const std::string &Host, uint16_t Port,
                          std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoString("socket");
    return Socket();
  }
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    ::close(Fd);
    Err = "bad IPv4 address: " + Host;
    return Socket();
  }
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    Err = errnoString("connect") + " (" + Host + ":" + std::to_string(Port) +
          ")";
    ::close(Fd);
    return Socket();
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Socket(Fd);
}

bool Socket::sendFrame(uint32_t RequestId, FrameType Type,
                       const std::string &Payload, std::string &Err) {
  if (Fd < 0) {
    Err = "socket not connected";
    return false;
  }
  if (Payload.size() > MaxFramePayload) {
    Err = "frame payload too large";
    return false;
  }
  std::string Header = encodeFrameHeader(
      static_cast<uint32_t>(Payload.size()), RequestId, Type);
  // One gathered write keeps a frame contiguous on the wire without
  // requiring atomicity from the peer.
  std::string Wire;
  Wire.reserve(Header.size() + Payload.size());
  Wire += Header;
  Wire += Payload;
  return writeAll(Fd, Wire.data(), Wire.size(), Err);
}

Socket::RecvStatus Socket::recvFrame(uint32_t &RequestId, FrameType &Type,
                                     std::string &Payload, int TimeoutMs,
                                     std::string &Err) {
  if (Fd < 0) {
    Err = "socket not connected";
    return RecvStatus::Error;
  }
  int Ready = pollIn(Fd, TimeoutMs);
  if (Ready == 0)
    return RecvStatus::Timeout;
  if (Ready < 0) {
    Err = "poll failed or connection reset";
    return RecvStatus::Error;
  }
  unsigned char Header[FrameHeaderBytes];
  // Peek the first byte to distinguish orderly EOF from a torn frame.
  ssize_t R = ::recv(Fd, Header, 1, 0);
  if (R == 0)
    return RecvStatus::Closed;
  if (R < 0) {
    Err = errnoString("recv");
    return RecvStatus::Error;
  }
  if (!readAll(Fd, reinterpret_cast<char *>(Header) + 1,
               FrameHeaderBytes - 1, Err))
    return RecvStatus::Error;
  uint32_t Len = 0;
  if (!decodeFrameHeader(Header, Len, RequestId, Type, Err))
    return RecvStatus::Error;
  Payload.resize(Len);
  if (Len && !readAll(Fd, Payload.data(), Len, Err))
    return RecvStatus::Error;
  return RecvStatus::Ok;
}

Listener::Listener(Listener &&O) noexcept
    : Fd(O.Fd), Port(O.Port), Path(std::move(O.Path)) {
  O.Fd = -1;
  O.Path.clear();
}

Listener &Listener::operator=(Listener &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    Port = O.Port;
    Path = std::move(O.Path);
    O.Fd = -1;
    O.Path.clear();
  }
  return *this;
}

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}

Listener Listener::listenUnix(const std::string &Path, std::string &Err) {
  Listener L;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoString("socket");
    return L;
  }
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    Err = "unix socket path too long: " + Path;
    return L;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ::unlink(Path.c_str()); // replace a stale socket from a dead server
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(Fd, SOMAXCONN) != 0) {
    Err = errnoString("bind/listen") + " (" + Path + ")";
    ::close(Fd);
    return L;
  }
  L.Fd = Fd;
  L.Path = Path;
  return L;
}

Listener Listener::listenTcp(uint16_t Port, std::string &Err) {
  Listener L;
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoString("socket");
    return L;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(Fd, SOMAXCONN) != 0) {
    Err = errnoString("bind/listen") + " (port " + std::to_string(Port) + ")";
    ::close(Fd);
    return L;
  }
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                    &AddrLen) == 0)
    L.Port = ntohs(Addr.sin_port);
  L.Fd = Fd;
  return L;
}

Socket Listener::acceptNow() {
  if (Fd < 0)
    return Socket();
  int CFd = ::accept4(Fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (CFd < 0)
    return Socket();
  return Socket(CFd);
}

bool Listener::setNonBlocking(std::string &Err) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) != 0) {
    Err = errnoString("fcntl(listener O_NONBLOCK)");
    return false;
  }
  return true;
}
