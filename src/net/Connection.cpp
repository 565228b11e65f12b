//===- net/Connection.cpp - Non-blocking framed connection ----------------===//

#include "net/Connection.h"

#include "support/Timer.h"

#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace lsra;
using namespace lsra::net;
using lsra::server::FrameDecoder;
using lsra::server::FrameType;

Connection::Connection(EventLoop &Loop, int Fd, uint64_t Id)
    : Loop(Loop), Fd(Fd), Id(Id) {}

Connection::~Connection() {
  if (Fd >= 0) {
    Loop.del(Fd);
    ::close(Fd);
    Fd = -1;
  }
}

bool Connection::start(OnFrameFn F, OnCloseFn C, std::string &Err) {
  OnFrame = std::move(F);
  OnClose = std::move(C);
  return Loop.add(
      Fd, EPOLLIN, [this](uint32_t Events) { handleEvents(Events); }, Err);
}

bool Connection::updateInterest() {
  uint32_t Events = EPOLLIN | (WantWrite ? uint32_t(EPOLLOUT) : 0u);
  // Once flushing-to-close, stop reading: the peer spoke a broken
  // protocol and anything further is noise.
  if (FlushThenClose)
    Events &= ~EPOLLIN;
  std::string Err;
  return Loop.mod(Fd, Events, Err);
}

void Connection::sendFrame(uint32_t RequestId, FrameType Type,
                           const std::string &Payload, int64_t StampNs) {
  if (Fd < 0)
    return;
  std::string Wire = server::encodeFrameHeader(
      static_cast<uint32_t>(Payload.size()), RequestId, Type);
  Wire += Payload;
  BacklogBytes += Wire.size();
  WriteQueue.push_back({std::move(Wire), StampNs});
  if (BacklogBytes > MaxWriteBacklog) {
    close("write backlog limit exceeded");
    return;
  }
  // Try the socket immediately: in the common case the buffer has room
  // and no EPOLLOUT round-trip is needed.
  if (!WantWrite)
    handleWritable();
}

void Connection::closeAfterFlush(const std::string &Reason) {
  if (Fd < 0)
    return;
  FlushThenClose = true;
  FlushCloseReason = Reason;
  if (WriteQueue.empty()) {
    close(Reason);
    return;
  }
  updateInterest();
}

void Connection::close(const std::string &Reason) {
  if (Fd < 0 || InClose)
    return;
  InClose = true;
  Loop.del(Fd);
  ::close(Fd);
  Fd = -1;
  if (OnSent)
    for (const Outgoing &Out : WriteQueue)
      if (Out.StampNs)
        OnSent(Out.StampNs);
  WriteQueue.clear();
  BacklogBytes = 0;
  if (OnClose)
    OnClose(Reason);
}

void Connection::handleEvents(uint32_t Events) {
  if (Fd < 0)
    return;
  if (Events & EPOLLERR) {
    close("socket error");
    return;
  }
  if (Events & (EPOLLIN | EPOLLHUP)) {
    handleReadable();
    if (Fd < 0)
      return;
  }
  if (Events & EPOLLOUT)
    handleWritable();
}

void Connection::handleReadable() {
  char Buf[64 * 1024];
  while (true) {
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      close(std::string("recv: ") + std::strerror(errno));
      return;
    }
    if (R == 0) {
      close("peer closed");
      return;
    }
    Decoder.append(Buf, static_cast<size_t>(R), steadyNowNs());
    FrameDecoder::Frame F;
    FrameDecoder::Status St;
    while ((St = Decoder.next(F)) == FrameDecoder::Status::Frame) {
      OnFrame(F);
      if (Fd < 0 || FlushThenClose)
        return;
    }
    if (St == FrameDecoder::Status::Error) {
      // Version mismatch: the id was readable, so the owner's OnFrame
      // gets a chance to send a typed Error before the hangup.
      OnFrame(F);
      if (Fd >= 0 && !FlushThenClose)
        close(F.Err);
      return;
    }
    if (static_cast<size_t>(R) < sizeof(Buf))
      break; // short read: the socket is drained
  }
}

void Connection::handleWritable() {
  while (!WriteQueue.empty()) {
    // Gather up to 8 queued frames into one writev.
    struct iovec Iov[8];
    int NIov = 0;
    size_t Offset = WriteOffset;
    for (const Outgoing &Out : WriteQueue) {
      if (NIov == 8)
        break;
      Iov[NIov].iov_base = const_cast<char *>(Out.Wire.data() + Offset);
      Iov[NIov].iov_len = Out.Wire.size() - Offset;
      ++NIov;
      Offset = 0;
    }
    ssize_t W = ::writev(Fd, Iov, NIov);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      close(std::string("writev: ") + std::strerror(errno));
      return;
    }
    BacklogBytes -= static_cast<size_t>(W);
    size_t Left = static_cast<size_t>(W);
    while (Left > 0) {
      size_t FrontLeft = WriteQueue.front().Wire.size() - WriteOffset;
      if (Left >= FrontLeft) {
        Left -= FrontLeft;
        int64_t StampNs = WriteQueue.front().StampNs;
        WriteQueue.pop_front();
        WriteOffset = 0;
        if (StampNs && OnSent)
          OnSent(StampNs);
      } else {
        WriteOffset += Left;
        Left = 0;
      }
    }
  }
  bool NeedWrite = !WriteQueue.empty();
  if (NeedWrite != WantWrite) {
    WantWrite = NeedWrite;
    updateInterest();
  }
  if (WriteQueue.empty() && FlushThenClose)
    close(FlushCloseReason);
}
