//===- net/Connection.h - Non-blocking framed connection -------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One non-blocking connection on an EventLoop, speaking the framed
/// protocol from server/Protocol.h. The read side feeds an incremental
/// FrameDecoder and hands complete frames to the owner's OnFrame callback;
/// the write side is a queue of encoded frames drained with writev(),
/// toggling EPOLLOUT interest only while a partial write is outstanding.
///
/// A frame sent with a stamp is reported back to the owner once its last
/// byte is written (or dropped at close), which is where a server's
/// request latency ends.
///
/// The write queue is what makes pipelining work: responses are enqueued
/// in completion order (not request order) and each carries its request
/// id, so many requests can be in flight per connection and finish out of
/// order without any coordination beyond "append to the queue".
///
/// Threading: every method must be called on the loop thread. Cross-thread
/// senders (compile workers) post a closure that looks the connection up
/// by id and calls sendFrame — the connection may be gone by then, which
/// is exactly the mid-merge-disconnect case and must be a silent no-op at
/// this layer.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_NET_CONNECTION_H
#define LSRA_NET_CONNECTION_H

#include "net/EventLoop.h"
#include "server/Protocol.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace lsra {
namespace net {

class Connection {
public:
  /// Invoked once per decoded frame. The handler may call close(); no
  /// further frames are delivered after that.
  using OnFrameFn = std::function<void(server::FrameDecoder::Frame &)>;
  /// Invoked exactly once when the connection dies (peer EOF, I/O error,
  /// protocol desync, or an explicit close()). The Connection object must
  /// NOT be destroyed inside the callback — it is still on the stack;
  /// post the erase to the loop instead.
  using OnCloseFn = std::function<void(const std::string &Reason)>;
  /// Invoked with a frame's stamp when its last byte has been written, or
  /// when the connection closes with the frame still queued.
  using OnSentFn = std::function<void(int64_t StampNs)>;

  /// Takes ownership of \p Fd (already non-blocking). \p Id is an opaque
  /// owner-assigned identity (stable across the connection's life, unlike
  /// the fd, which the kernel recycles).
  Connection(EventLoop &Loop, int Fd, uint64_t Id);
  ~Connection();

  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Register with the loop for reads. False (Err set) if epoll refuses.
  bool start(OnFrameFn OnFrame, OnCloseFn OnClose, std::string &Err);

  /// Report stamped frames to \p F (see OnSentFn).
  void onStampedSent(OnSentFn F) { OnSent = std::move(F); }

  /// Queue one frame for writing; writes as much as the socket accepts
  /// immediately and arms EPOLLOUT for the rest. Dropped silently if the
  /// connection is already closed. A nonzero \p StampNs goes back to the
  /// OnSent callback when the frame is done.
  void sendFrame(uint32_t RequestId, server::FrameType Type,
                 const std::string &Payload, int64_t StampNs = 0);

  /// Close once the write queue drains (used for "typed error then
  /// hang up" on protocol version mismatch). Reads stop immediately.
  void closeAfterFlush(const std::string &Reason);

  /// Tear down now: deregister, close the fd, fire OnClose. Queued
  /// unwritten bytes are discarded. Idempotent.
  void close(const std::string &Reason);

  uint64_t id() const { return Id; }
  int fd() const { return Fd; }
  bool closed() const { return Fd < 0; }

  /// Bytes queued but not yet accepted by the kernel.
  size_t writeBacklogBytes() const { return BacklogBytes; }

  /// A peer that stops reading while we keep answering would otherwise
  /// buffer without bound; beyond this backlog the connection is dropped.
  static constexpr size_t MaxWriteBacklog = 256u << 20;

private:
  void handleEvents(uint32_t Events);
  void handleReadable();
  void handleWritable();
  bool updateInterest();

  EventLoop &Loop;
  int Fd;
  uint64_t Id;
  OnFrameFn OnFrame;
  OnCloseFn OnClose;
  OnSentFn OnSent;

  server::FrameDecoder Decoder;

  // Write queue: fully-encoded frames (header + payload contiguous) with
  // their stamps (0 = none); WriteOffset is the consumed prefix of the
  // front entry.
  struct Outgoing {
    std::string Wire;
    int64_t StampNs = 0;
  };
  std::deque<Outgoing> WriteQueue;
  size_t WriteOffset = 0;
  size_t BacklogBytes = 0;
  bool WantWrite = false; ///< EPOLLOUT currently armed
  bool FlushThenClose = false;
  std::string FlushCloseReason;
  bool InClose = false; ///< re-entrancy guard for close()
};

} // namespace net
} // namespace lsra

#endif // LSRA_NET_CONNECTION_H
