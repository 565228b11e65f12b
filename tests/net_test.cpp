//===- tests/net_test.cpp - Event loop and framed-connection tests --------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The net/ layer in isolation: epoll loop task posting and timers, the
// incremental frame decoder's reassembly and error handling, and the
// non-blocking Connection over a socketpair — including the partial-write
// path with a deliberately tiny kernel send buffer.
//
//===----------------------------------------------------------------------===//

#include "net/Connection.h"
#include "net/EventLoop.h"
#include "server/Protocol.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fcntl.h>
#include <future>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lsra;
using namespace lsra::net;
using namespace lsra::server;

namespace {

/// Run the loop on a helper thread for a test's lifetime.
struct LoopRunner {
  EventLoop Loop;
  std::thread T;

  bool start(std::string &Err) {
    if (!Loop.init(Err))
      return false;
    T = std::thread([this] { Loop.run(); });
    return true;
  }
  ~LoopRunner() {
    if (T.joinable()) {
      Loop.stop();
      T.join();
    }
  }
  /// Run \p Fn on the loop thread and wait for it.
  void sync(std::function<void()> Fn) {
    std::promise<void> Done;
    Loop.post([&] {
      Fn();
      Done.set_value();
    });
    Done.get_future().wait();
  }
};

std::string encodeFrame(uint32_t Id, FrameType T, const std::string &Payload) {
  return encodeFrameHeader(static_cast<uint32_t>(Payload.size()), Id, T) +
         Payload;
}

} // namespace

// --- EventLoop --------------------------------------------------------------

TEST(EventLoop, PostRunsOnLoopThreadAndWakes) {
  LoopRunner R;
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::atomic<bool> Ran{false}, OnLoop{false};
  R.sync([&] {
    Ran = true;
    OnLoop = R.Loop.inLoopThread();
  });
  EXPECT_TRUE(Ran.load());
  EXPECT_TRUE(OnLoop.load());
  EXPECT_FALSE(R.Loop.inLoopThread()); // we are not the loop thread
}

TEST(EventLoop, PostFifoFromOneThread) {
  LoopRunner R;
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::vector<int> Order;
  for (int I = 0; I < 8; ++I)
    R.Loop.post([&Order, I] { Order.push_back(I); });
  R.sync([] {}); // barrier: everything posted before this has run
  ASSERT_EQ(Order.size(), 8u);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Order[size_t(I)], I);
}

TEST(EventLoop, TimerFiresAtDeadline) {
  LoopRunner R;
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::promise<int64_t> FiredAt;
  int64_t Armed = steadyNowNs();
  R.sync([&] {
    R.Loop.addTimerAtNs(Armed + 50'000'000,
                        [&] { FiredAt.set_value(steadyNowNs()); });
  });
  auto F = FiredAt.get_future();
  ASSERT_EQ(F.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  // Not early (modulo one wheel tick of rounding), and not wildly late.
  EXPECT_GE(F.get(), Armed + 50'000'000 - EventLoop::TickNs);
}

TEST(EventLoop, CancelledTimerNeverFires) {
  LoopRunner R;
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;
  std::atomic<int> CancelledFired{0};
  std::promise<void> KeptFired;
  R.sync([&] {
    int64_t Now = steadyNowNs();
    uint64_t Doomed =
        R.Loop.addTimerAtNs(Now + 30'000'000, [&] { CancelledFired++; });
    R.Loop.addTimerAtNs(Now + 60'000'000, [&] { KeptFired.set_value(); });
    R.Loop.cancelTimer(Doomed);
  });
  // The later timer firing proves the wheel advanced past the cancelled slot.
  ASSERT_EQ(KeptFired.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(CancelledFired.load(), 0);
}

// --- FrameDecoder -----------------------------------------------------------

TEST(FrameDecoder, ReassemblesByteAtATime) {
  CompileRequest Req;
  Req.IRText = "func @f() { ret 0 }";
  std::string Wire =
      encodeFrame(42, FrameType::CompileRequest, encodeCompileRequest(Req));
  // A second frame right behind it, to prove no trailing bytes are lost.
  Wire += encodeFrame(43, FrameType::Ping, "");

  FrameDecoder D;
  std::vector<FrameDecoder::Frame> Got;
  for (char C : Wire) {
    D.append(&C, 1);
    FrameDecoder::Frame F;
    while (D.next(F) == FrameDecoder::Status::Frame)
      Got.push_back(F);
  }
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].RequestId, 42u);
  EXPECT_EQ(Got[0].Type, FrameType::CompileRequest);
  CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeCompileRequest(Got[0].Payload, Out, Err)) << Err;
  EXPECT_EQ(Out.IRText, Req.IRText);
  EXPECT_EQ(Got[1].RequestId, 43u);
  EXPECT_EQ(Got[1].Type, FrameType::Ping);
  EXPECT_EQ(D.buffered(), 0u);
}

TEST(FrameDecoder, StampsEachFrameWithItsFirstBytesRead) {
  // Three frames over three reads: the first read holds frame 1 and the
  // head of frame 2, the second the rest of frame 2, the third frame 3.
  std::string F1 = encodeFrame(1, FrameType::Ping, "one");
  std::string F2 = encodeFrame(2, FrameType::Ping, "two");
  std::string F3 = encodeFrame(3, FrameType::Ping, "three");
  std::string Read1 = F1 + F2.substr(0, 5), Read2 = F2.substr(5);
  FrameDecoder D;
  std::vector<FrameDecoder::Frame> Got;
  auto Drain = [&] {
    FrameDecoder::Frame F;
    while (D.next(F) == FrameDecoder::Status::Frame)
      Got.push_back(F);
  };
  D.append(Read1.data(), Read1.size(), 100);
  Drain();
  D.append(Read2.data(), Read2.size(), 200);
  Drain();
  D.append(F3.data(), F3.size(), 300);
  Drain();
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0].FirstByteNs, 100);
  EXPECT_EQ(Got[1].FirstByteNs, 100) << "frame 2 began in the first read";
  EXPECT_EQ(Got[2].FirstByteNs, 300);
}

TEST(FrameDecoder, GarbageMagicIsStickyError) {
  FrameDecoder D;
  std::string Junk = "this is not a frame header at all!";
  D.append(Junk.data(), Junk.size());
  FrameDecoder::Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Error);
  EXPECT_FALSE(F.Err.empty());
  EXPECT_FALSE(F.VersionMismatch);
  // Sticky: even valid bytes afterwards never resynchronize the stream.
  std::string Good = encodeFrame(1, FrameType::Ping, "");
  D.append(Good.data(), Good.size());
  EXPECT_EQ(D.next(F), FrameDecoder::Status::Error);
}

TEST(FrameDecoder, VersionMismatchKeepsRequestId) {
  std::string Wire = encodeFrame(77, FrameType::Ping, "");
  Wire[4] = char(ProtocolVersion + 9); // corrupt the version byte
  FrameDecoder D;
  D.append(Wire.data(), Wire.size());
  FrameDecoder::Frame F;
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Error);
  EXPECT_TRUE(F.VersionMismatch);
  EXPECT_EQ(F.RequestId, 77u); // readable despite the mismatch
}

TEST(FrameDecoder, TruncatedFrameNeedsMore) {
  std::string Wire = encodeFrame(5, FrameType::Ping, "payload");
  FrameDecoder D;
  D.append(Wire.data(), Wire.size() - 1);
  FrameDecoder::Frame F;
  EXPECT_EQ(D.next(F), FrameDecoder::Status::NeedMore);
  D.append(Wire.data() + Wire.size() - 1, 1);
  ASSERT_EQ(D.next(F), FrameDecoder::Status::Frame);
  EXPECT_EQ(F.Payload, "payload");
}

// --- Connection -------------------------------------------------------------

namespace {

/// A Connection on one end of a socketpair, with the raw peer fd for the
/// test to push and pull bytes through.
struct ConnHarness {
  LoopRunner R;
  int PeerFd = -1;
  std::unique_ptr<Connection> Conn;
  std::mutex Mu;
  std::vector<FrameDecoder::Frame> Frames;
  std::promise<std::string> Closed;

  bool start(std::string &Err) {
    if (!R.start(Err))
      return false;
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
      Err = "socketpair failed";
      return false;
    }
    // The Connection contract requires a non-blocking fd; a blocking one
    // would park the loop thread inside writev once the buffer fills.
    ::fcntl(Fds[0], F_SETFL, ::fcntl(Fds[0], F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(Fds[1], F_SETFL, ::fcntl(Fds[1], F_GETFL, 0) | O_NONBLOCK);
    PeerFd = Fds[1];
    bool Ok = false;
    R.sync([&] {
      Conn = std::make_unique<Connection>(R.Loop, Fds[0], 1);
      Ok = Conn->start(
          [this](FrameDecoder::Frame &F) {
            std::lock_guard<std::mutex> G(Mu);
            Frames.push_back(F);
          },
          [this](const std::string &Reason) { Closed.set_value(Reason); },
          Err);
    });
    return Ok;
  }
  ~ConnHarness() {
    if (Conn) {
      // Destroy on the loop thread, where all Connection state lives.
      R.sync([&] { Conn.reset(); });
    }
    if (PeerFd >= 0)
      ::close(PeerFd);
  }
  size_t frameCount() {
    std::lock_guard<std::mutex> G(Mu);
    return Frames.size();
  }
};

/// Read from \p Fd until \p N bytes have arrived or \p TimeoutMs passes.
std::string readExactly(int Fd, size_t N, int TimeoutMs) {
  std::string Out;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (Out.size() < N && std::chrono::steady_clock::now() < Deadline) {
    char Buf[64 * 1024];
    ssize_t R = ::read(Fd, Buf, std::min(sizeof(Buf), N - Out.size()));
    if (R > 0)
      Out.append(Buf, size_t(R));
    else if (R == 0)
      break;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Out;
}

} // namespace

TEST(Connection, DeliversFramesAndEchoes) {
  ConnHarness H;
  std::string Err;
  ASSERT_TRUE(H.start(Err)) << Err;

  std::string Wire = encodeFrame(9, FrameType::Ping, "");
  ASSERT_EQ(::write(H.PeerFd, Wire.data(), Wire.size()),
            ssize_t(Wire.size()));
  for (int Spin = 0; Spin < 1000 && H.frameCount() < 1; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(H.frameCount(), 1u);
  EXPECT_EQ(H.Frames[0].RequestId, 9u);
  EXPECT_EQ(H.Frames[0].Type, FrameType::Ping);

  H.R.sync([&] { H.Conn->sendFrame(9, FrameType::Pong, ""); });
  std::string Back = readExactly(H.PeerFd, FrameHeaderBytes, 5000);
  ASSERT_EQ(Back.size(), FrameHeaderBytes);
  uint32_t Len, Id;
  FrameType T;
  ASSERT_TRUE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Back.data()), Len, Id, T, Err))
      << Err;
  EXPECT_EQ(Id, 9u);
  EXPECT_EQ(T, FrameType::Pong);
  EXPECT_EQ(Len, 0u);
}

// The partial-write path: a tiny SO_SNDBUF and a peer that reads nothing
// while several large frames are queued. The connection must buffer, arm
// EPOLLOUT, and deliver every byte once the peer drains.
TEST(Connection, PartialWritesDrainInOrder) {
  ConnHarness H;
  std::string Err;
  ASSERT_TRUE(H.start(Err)) << Err;

  int Small = 4096;
  ASSERT_EQ(::setsockopt(H.Conn->fd(), SOL_SOCKET, SO_SNDBUF, &Small,
                         sizeof(Small)),
            0);

  // Queue well past the send buffer without reading the peer end.
  constexpr unsigned NFrames = 16;
  const std::string Payload(32 * 1024, 'x');
  H.R.sync([&] {
    for (unsigned I = 0; I < NFrames; ++I)
      H.Conn->sendFrame(I + 1, FrameType::StatsReply, Payload);
  });
  size_t Expect = NFrames * (FrameHeaderBytes + Payload.size());

  // Now drain; every frame must come out complete and in queue order.
  std::string All = readExactly(H.PeerFd, Expect, 20000);
  ASSERT_EQ(All.size(), Expect);
  size_t Off = 0;
  for (unsigned I = 0; I < NFrames; ++I) {
    uint32_t Len, Id;
    FrameType T;
    ASSERT_TRUE(decodeFrameHeader(
        reinterpret_cast<const unsigned char *>(All.data() + Off), Len, Id, T,
        Err))
        << Err << " frame " << I;
    EXPECT_EQ(Id, I + 1);
    EXPECT_EQ(T, FrameType::StatsReply);
    ASSERT_EQ(Len, Payload.size());
    EXPECT_EQ(All.compare(Off + FrameHeaderBytes, Len, Payload), 0)
        << "frame " << I << " corrupted";
    Off += FrameHeaderBytes + Len;
  }
}

TEST(Connection, PeerCloseFiresOnCloseOnce) {
  ConnHarness H;
  std::string Err;
  ASSERT_TRUE(H.start(Err)) << Err;
  ::close(H.PeerFd);
  H.PeerFd = -1;
  auto F = H.Closed.get_future();
  ASSERT_EQ(F.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  EXPECT_EQ(F.get(), "peer closed");
}

TEST(Connection, CloseAfterFlushDeliversQueuedBytesThenEof) {
  ConnHarness H;
  std::string Err;
  ASSERT_TRUE(H.start(Err)) << Err;

  int Small = 4096;
  ASSERT_EQ(::setsockopt(H.Conn->fd(), SOL_SOCKET, SO_SNDBUF, &Small,
                         sizeof(Small)),
            0);
  const std::string Payload(64 * 1024, 'y');
  H.R.sync([&] {
    H.Conn->sendFrame(1, FrameType::StatsReply, Payload);
    H.Conn->closeAfterFlush("test flush-close");
  });
  size_t Expect = FrameHeaderBytes + Payload.size();
  std::string All = readExactly(H.PeerFd, Expect, 20000);
  ASSERT_EQ(All.size(), Expect); // nothing truncated by the close
  // After the flush the connection closes for real: EOF on the peer.
  char C;
  ssize_t R;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((R = ::read(H.PeerFd, &C, 1)) < 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(R, 0);
  auto F = H.Closed.get_future();
  ASSERT_EQ(F.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}
