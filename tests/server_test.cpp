//===- tests/server_test.cpp - Compile-server loopback smoke tests --------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The serving acceptance tests: protocol encode/decode round trips, the
// bounded admission queue's drain semantics, and a loopback server driven
// by concurrent clients — byte-identical results vs offline compilation,
// typed error responses for deadline/overload/parse failures, and a
// graceful drain under load. Designed to run under LSRA_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/LoadGen.h"
#include "server/Protocol.h"
#include "server/RequestQueue.h"
#include "server/Server.h"

#include "cache/SharedCache.h"

#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "obs/Counters.h"
#include "obs/Metrics.h"
#include "support/AllocProfile.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace lsra;
using namespace lsra::server;

namespace {

std::string uniqueSockPath(const char *Tag) {
  return "/tmp/lsra-test-" + std::string(Tag) + "." +
         std::to_string(::getpid()) + ".sock";
}

std::string workloadText(const char *Name) {
  std::ostringstream OS;
  printModule(OS, *buildWorkload(Name));
  return OS.str();
}

} // namespace

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, FrameHeaderRoundTrip) {
  std::string H = encodeFrameHeader(1234, 77, FrameType::CompileOk);
  ASSERT_EQ(H.size(), FrameHeaderBytes);
  uint32_t Len = 0, Id = 0;
  FrameType T;
  std::string Err;
  ASSERT_TRUE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(H.data()), Len, Id, T, Err))
      << Err;
  EXPECT_EQ(Len, 1234u);
  EXPECT_EQ(Id, 77u);
  EXPECT_EQ(T, FrameType::CompileOk);
}

TEST(Protocol, FrameHeaderRejectsGarbage) {
  std::string H = encodeFrameHeader(10, 1, FrameType::Ping);
  ASSERT_EQ(H.size(), static_cast<size_t>(FrameHeaderBytes));
  std::string Err;
  uint32_t Len, Id;
  FrameType T;
  // Corrupt the magic (a pre-framing or non-lsra client).
  std::string Bad = H;
  Bad[0] = 'X';
  EXPECT_FALSE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Bad.data()), Len, Id, T, Err));
  EXPECT_EQ(Err, "bad frame magic");
  // Unknown frame type (byte 13 in the v1 layout).
  Bad = H;
  Bad[13] = 99;
  EXPECT_FALSE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Bad.data()), Len, Id, T, Err));
  // Oversized payload length (bytes 5..8).
  Bad = H;
  Bad[5] = Bad[6] = Bad[7] = Bad[8] = static_cast<char>(0xff);
  EXPECT_FALSE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Bad.data()), Len, Id, T, Err));
}

TEST(Protocol, FrameHeaderRejectsWrongVersion) {
  std::string H = encodeFrameHeader(0, 42, FrameType::Ping);
  std::string Err;
  uint32_t Len, Id = 0;
  FrameType T;
  std::string Bad = H;
  Bad[4] = static_cast<char>(ProtocolVersion + 1);
  EXPECT_FALSE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Bad.data()), Len, Id, T, Err));
  // The mismatch error is typed (the server matches on this prefix) and the
  // request id is still decoded, so a typed Error frame can answer it.
  EXPECT_EQ(Err.rfind(VersionMismatchPrefix, 0), 0u) << Err;
  EXPECT_EQ(Id, 42u);
  // Version 0 (the pre-versioning layout) is rejected the same way.
  Bad[4] = 0;
  EXPECT_FALSE(decodeFrameHeader(
      reinterpret_cast<const unsigned char *>(Bad.data()), Len, Id, T, Err));
  EXPECT_EQ(Err.rfind(VersionMismatchPrefix, 0), 0u) << Err;
}

TEST(Protocol, CompileRequestRoundTrip) {
  CompileRequest R;
  R.Allocator = "coloring";
  R.Regs = 8;
  R.Cleanup = true;
  R.Run = true;
  R.DeadlineMs = 250;
  R.IRText = "func f (iparams=0 fparams=0 ret=none vregs=0 slots=0)\n";
  CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(decodeCompileRequest(encodeCompileRequest(R), Out, Err)) << Err;
  EXPECT_EQ(Out.Allocator, "coloring");
  EXPECT_EQ(Out.Regs, 8u);
  EXPECT_TRUE(Out.Cleanup);
  EXPECT_TRUE(Out.Run);
  EXPECT_EQ(Out.DeadlineMs, 250u);
  EXPECT_EQ(Out.IRText, R.IRText);
}

TEST(Protocol, CompileResponseRoundTrip) {
  CompileResponse R;
  R.Status = FrameType::CompileOk;
  R.Allocator = "binpack";
  R.Candidates = 42;
  R.Spilled = 3;
  R.StaticSpills = 7;
  R.AllocSeconds = 0.25;
  R.HasRun = true;
  R.DynInstrs = 1000;
  R.ReturnValue = -5;
  R.IRText = "module text\nwith lines\n";
  CompileResponse Out;
  std::string Err;
  ASSERT_TRUE(decodeCompileResponse(
      FrameType::CompileOk, encodeCompileResponse(R), Out, Err))
      << Err;
  EXPECT_EQ(Out.Candidates, 42u);
  EXPECT_EQ(Out.Spilled, 3u);
  EXPECT_TRUE(Out.HasRun);
  EXPECT_EQ(Out.DynInstrs, 1000u);
  EXPECT_EQ(Out.ReturnValue, -5);
  EXPECT_EQ(Out.IRText, R.IRText);

  CompileResponse E;
  E.Status = FrameType::Error;
  E.Message = "line 3, col 4: unknown opcode (near 'bogus')";
  E.ErrLine = 3;
  E.ErrCol = 4;
  E.ErrToken = "bogus";
  ASSERT_TRUE(decodeCompileResponse(FrameType::Error,
                                    encodeCompileResponse(E), Out, Err))
      << Err;
  EXPECT_EQ(Out.Status, FrameType::Error);
  EXPECT_EQ(Out.ErrLine, 3u);
  EXPECT_EQ(Out.ErrCol, 4u);
  EXPECT_EQ(Out.ErrToken, "bogus");
  EXPECT_EQ(Out.Message, E.Message);
}

// --- RequestQueue -----------------------------------------------------------

TEST(RequestQueue, BoundsAdmission) {
  RequestQueue Q(2);
  EXPECT_TRUE(Q.tryPush([] {}));
  EXPECT_TRUE(Q.tryPush([] {}));
  EXPECT_FALSE(Q.tryPush([] {})); // full: load shed
  EXPECT_EQ(Q.depth(), 2u);
  std::function<void()> T;
  EXPECT_TRUE(Q.pop(T));
  EXPECT_EQ(Q.depth(), 1u);
  EXPECT_TRUE(Q.tryPush([] {}));
}

TEST(RequestQueue, CloseDrainsThenStops) {
  RequestQueue Q(8);
  int Ran = 0;
  ASSERT_TRUE(Q.tryPush([&] { ++Ran; }));
  ASSERT_TRUE(Q.tryPush([&] { ++Ran; }));
  Q.close();
  EXPECT_FALSE(Q.tryPush([&] { ++Ran; })); // closed: no new admissions
  std::function<void()> T;
  while (Q.pop(T))
    T();
  EXPECT_EQ(Ran, 2); // admitted work still ran after close
}

TEST(RequestQueue, CloseWakesBlockedConsumers) {
  RequestQueue Q(4);
  std::thread Consumer([&] {
    std::function<void()> T;
    while (Q.pop(T))
      T();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  Consumer.join(); // must not hang
}

// --- Loopback server --------------------------------------------------------

TEST(Server, PingPong) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("ping");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;
  EXPECT_TRUE(C.ping(Err, 5000)) << Err;
  S.shutdown();
}

// A client speaking the wrong protocol version gets a typed Error frame
// (carrying its request id) before the server drops the connection — not a
// silent hangup it cannot distinguish from a crash.
TEST(Server, WrongVersionFrameGetsTypedError) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("version");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Socket Raw = Socket::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(Raw.valid()) << Err;
  // A well-formed v1 header with the version byte bumped.
  std::string Payload = "\nping-ish";
  std::string Frame =
      encodeFrameHeader(static_cast<uint32_t>(Payload.size()), 7,
                        FrameType::CompileRequest) +
      Payload;
  Frame[4] = static_cast<char>(ProtocolVersion + 1);
  ASSERT_EQ(::send(Raw.fd(), Frame.data(), Frame.size(), 0),
            static_cast<ssize_t>(Frame.size()));

  uint32_t Id = 0;
  FrameType T;
  std::string Reply;
  ASSERT_EQ(Raw.recvFrame(Id, T, Reply, 5000, Err), Socket::RecvStatus::Ok)
      << Err;
  EXPECT_EQ(Id, 7u);
  EXPECT_EQ(T, FrameType::Error);
  CompileResponse R;
  ASSERT_TRUE(decodeCompileResponse(T, Reply, R, Err)) << Err;
  EXPECT_EQ(R.Message.rfind(VersionMismatchPrefix, 0), 0u) << R.Message;
  S.shutdown();
}

// The `tier` request field of protocol v4 is gone: a current-version frame
// that still carries it is refused with a typed Error naming the field,
// never silently compiled as if the field were absent.
TEST(Server, RetiredTierFieldGetsTypedError) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("tier-field");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Socket Raw = Socket::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(Raw.valid()) << Err;
  std::string Payload = "allocator=binpack\ntier=promote\n\n" +
                        workloadText("sort");
  std::string Frame =
      encodeFrameHeader(static_cast<uint32_t>(Payload.size()), 9,
                        FrameType::CompileRequest) +
      Payload;
  ASSERT_EQ(::send(Raw.fd(), Frame.data(), Frame.size(), 0),
            static_cast<ssize_t>(Frame.size()));

  uint32_t Id = 0;
  FrameType T;
  std::string Reply;
  ASSERT_EQ(Raw.recvFrame(Id, T, Reply, 5000, Err), Socket::RecvStatus::Ok)
      << Err;
  EXPECT_EQ(Id, 9u);
  EXPECT_EQ(T, FrameType::Error);
  CompileResponse R;
  ASSERT_TRUE(decodeCompileResponse(T, Reply, R, Err)) << Err;
  EXPECT_NE(R.Message.find("unknown request field 'tier'"), std::string::npos)
      << R.Message;
  S.shutdown();
}

// Bytes that never were an lsra frame (an HTTP client, say) are dropped
// without a reply: there is no trustworthy request id to answer.
TEST(Server, OldMagicConnectionDropped) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("magic");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Socket Raw = Socket::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(Raw.valid()) << Err;
  std::string Junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(Raw.fd(), Junk.data(), Junk.size(), 0),
            static_cast<ssize_t>(Junk.size()));

  uint32_t Id = 0;
  FrameType T;
  std::string Reply;
  Socket::RecvStatus St = Raw.recvFrame(Id, T, Reply, 5000, Err);
  // EOF or a reset (the server may close with our junk bytes unread) —
  // anything but a frame.
  EXPECT_TRUE(St == Socket::RecvStatus::Closed ||
              St == Socket::RecvStatus::Error)
      << static_cast<int>(St);
  S.shutdown();
}

TEST(Server, TcpTransport) {
  ServerOptions SO; // empty UnixPath → ephemeral loopback TCP port
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  ASSERT_NE(S.port(), 0);
  Client C = Client::connectTcp("127.0.0.1", S.port(), Err);
  ASSERT_TRUE(C.valid()) << Err;
  CompileRequest Req;
  Req.IRText = workloadText("wc");
  CompileResponse Resp;
  ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
  EXPECT_TRUE(Resp.ok()) << Resp.Message;
  S.shutdown();
}

// Repeating a request must be answered from the compile cache (cached=1 on
// the wire) with byte-identical allocated text; no_cache=1 opts out.
TEST(Server, RepeatedRequestServedFromCache) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("cache");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  CompileRequest Req;
  Req.IRText = workloadText("wc");
  CompileResponse Cold, Warm, Bypass;
  ASSERT_TRUE(C.compile(Req, Cold, Err, 30000)) << Err;
  ASSERT_TRUE(Cold.ok()) << Cold.Message;
  EXPECT_FALSE(Cold.Cached);
  ASSERT_TRUE(C.compile(Req, Warm, Err, 30000)) << Err;
  ASSERT_TRUE(Warm.ok()) << Warm.Message;
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.IRText, Cold.IRText);
  EXPECT_EQ(Warm.Spilled, Cold.Spilled);
  EXPECT_EQ(Warm.Candidates, Cold.Candidates);

  Req.NoCache = true;
  ASSERT_TRUE(C.compile(Req, Bypass, Err, 30000)) << Err;
  ASSERT_TRUE(Bypass.ok()) << Bypass.Message;
  EXPECT_FALSE(Bypass.Cached);
  EXPECT_EQ(Bypass.IRText, Cold.IRText);

  ASSERT_NE(S.compileCache(), nullptr);
  cache::CacheStats CS = S.compileCache()->stats();
  EXPECT_GE(CS.Hits, 1u);
  EXPECT_GE(CS.Insertions, 1u);
  S.shutdown();
}

// The acceptance-criteria smoke test: ≥4 concurrent clients, every served
// module byte-identical (IR text and statistics) to offline compilation.
TEST(Server, ConcurrentClientsMatchOffline) {
  const char *Corpus[] = {"eqntott", "espresso", "sort", "wc", "li"};
  constexpr unsigned NumClients = 4, PerClient = 5;

  // Offline reference: the same pipeline, same options, run locally.
  std::vector<std::string> RequestText, OfflineText;
  std::vector<AllocStats> OfflineStats;
  for (const char *W : Corpus) {
    RequestText.push_back(workloadText(W));
    TextCompileResult TC = compileTextModule(
        RequestText.back(), TargetDesc::alphaLike(),
        AllocatorKind::SecondChanceBinpack, AllocOptions(), ExecOptions(),
        /*RunAfter=*/true);
    ASSERT_TRUE(TC.Ok) << TC.Error;
    OfflineText.push_back(TC.AllocatedText);
    OfflineStats.push_back(TC.Stats);
  }

  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("smoke");
  SO.Workers = 4;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumClients; ++T)
    Clients.emplace_back([&, T] {
      std::string CErr;
      Client C = Client::connectUnix(SO.UnixPath, CErr);
      if (!C.valid()) {
        Failures++;
        return;
      }
      for (unsigned K = 0; K < PerClient; ++K) {
        unsigned W = (T + K) % (sizeof(Corpus) / sizeof(Corpus[0]));
        CompileRequest Req;
        Req.IRText = RequestText[W];
        Req.Run = true;
        CompileResponse Resp;
        if (!C.compile(Req, Resp, CErr, 60000) || !Resp.ok()) {
          Failures++;
          continue;
        }
        // Byte-identical allocated IR, identical statistics.
        if (Resp.IRText != OfflineText[W])
          Failures++;
        const AllocStats &Ref = OfflineStats[W];
        if (Resp.Candidates != Ref.RegCandidates ||
            Resp.Spilled != Ref.SpilledTemps ||
            Resp.StaticSpills != Ref.staticSpillInstrs() ||
            Resp.Coalesced != Ref.MovesCoalesced ||
            Resp.Splits != Ref.LifetimeSplits)
          Failures++;
        if (!Resp.HasRun)
          Failures++;
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_GE(S.requestsServed(), uint64_t(NumClients * PerClient));
  S.shutdown();
}

TEST(Server, ParseErrorGetsTypedResponse) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("parse-err");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  CompileRequest Req;
  Req.IRText = "func f (iparams=0 fparams=0 ret=none vregs=1 slots=0)\n"
               "bb0 (entry):\n"
               "  frobnicate %0, 1\n";
  CompileResponse Resp;
  ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
  EXPECT_EQ(Resp.Status, FrameType::Error);
  EXPECT_NE(Resp.Message.find("unknown opcode"), std::string::npos)
      << Resp.Message;
  EXPECT_EQ(Resp.ErrLine, 3u);
  EXPECT_GT(Resp.ErrCol, 0u);
  EXPECT_EQ(Resp.ErrToken, "frobnicate");

  // Malformed payload (no header terminator) is also a typed Error.
  CompileResponse Resp2;
  // Craft via a raw request whose IR contains only garbage — still goes
  // through the same typed-path.
  Req.IRText = "complete nonsense\n";
  ASSERT_TRUE(C.compile(Req, Resp2, Err, 30000)) << Err;
  EXPECT_EQ(Resp2.Status, FrameType::Error);
  S.shutdown();
}

// A memory image past the parser's bound (an address that would wrap, or
// one the host cannot allocate) gets an Error frame, and the same server
// keeps compiling.
TEST(Server, HugeMemoryImageGetsTypedErrorAndServerSurvives) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("mem-bound");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  for (const char *Line : {"mem 4294967295 0x1", "mem 3000000000 0x1",
                           "memsize 3000000000"}) {
    CompileRequest Req;
    Req.IRText = std::string(Line) +
                 "\nfunc main (iparams=0 fparams=0 ret=int vregs=1 slots=0)\n"
                 "bb0 (entry):\n  movi %0, 0\n  ret %0\n";
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
    EXPECT_EQ(Resp.Status, FrameType::Error) << Line;
    EXPECT_NE(Resp.Message.find("out of range"), std::string::npos)
        << Resp.Message;
    EXPECT_EQ(Resp.ErrLine, 1u) << Line;
  }

  CompileRequest Req;
  Req.IRText = workloadText("eqntott");
  CompileResponse Ok;
  ASSERT_TRUE(C.compile(Req, Ok, Err, 30000)) << Err;
  EXPECT_EQ(Ok.Status, FrameType::CompileOk) << Ok.Message;
  EXPECT_FALSE(Ok.IRText.empty());
  S.shutdown();
}

TEST(Server, VerifyAllocProvesServedAllocations) {
  // With --verify-alloc the server runs the translation validator on every
  // compile; a provable allocation serves normally.
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("verify-alloc");
  SO.Workers = 1;
  SO.VerifyAlloc = true;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  for (const char *Alloc : {"binpack", "coloring", "twopass", "poletto"}) {
    CompileRequest Req;
    Req.IRText = workloadText("sort");
    Req.Allocator = Alloc;
    Req.Regs = 8; // force spilling so the verifier has real work
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, Err, 60000)) << Err;
    EXPECT_TRUE(Resp.ok()) << Alloc << ": " << Resp.Message;
  }
  S.shutdown();
}

TEST(Server, DeadlineExceededTyped) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("deadline");
  SO.Workers = 1; // single worker so the hold request blocks the queue
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  bool HolderOk = false;
  std::thread Holder([&] {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    if (!C.valid())
      return;
    CompileRequest Req;
    Req.IRText = workloadText("wc");
    Req.HoldMs = 400;
    CompileResponse Resp;
    HolderOk = C.compile(Req, Resp, CErr, 60000) && Resp.ok();
  });
  // Let the hold request reach the worker first.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string CErr;
  Client C = Client::connectUnix(SO.UnixPath, CErr);
  bool Connected = C.valid();
  bool Answered = false;
  CompileResponse Resp;
  if (Connected) {
    CompileRequest Req;
    Req.IRText = workloadText("wc");
    Req.DeadlineMs = 50; // expires while queued behind the 400ms hold
    Answered = C.compile(Req, Resp, CErr, 60000);
  }
  Holder.join();
  ASSERT_TRUE(Connected) << CErr;
  ASSERT_TRUE(Answered) << CErr;
  EXPECT_EQ(Resp.Status, FrameType::DeadlineExceeded) << Resp.Message;
  EXPECT_TRUE(HolderOk);
  S.shutdown();
}

TEST(Server, QueueFullRejectedTyped) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("shed");
  SO.Workers = 1;
  SO.QueueCapacity = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Request A occupies the worker; request B occupies the whole queue;
  // request C must be shed with a typed Rejected response. A, B, and C use
  // distinct HoldMs values so their merge keys differ — identical requests
  // would piggyback on the in-flight compile instead of being shed.
  auto holdClient = [&](uint32_t HoldMs, FrameType *StatusOut) {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(C.valid()) << CErr;
    CompileRequest Req;
    Req.IRText = workloadText("wc");
    Req.HoldMs = HoldMs;
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, CErr, 60000)) << CErr;
    *StatusOut = Resp.Status;
  };
  FrameType StA, StB, StC;
  std::thread A([&] { holdClient(500, &StA); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread B([&] { holdClient(0, &StB); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread Cc([&] { holdClient(1, &StC); });
  A.join();
  B.join();
  Cc.join();
  EXPECT_EQ(StA, FrameType::CompileOk);
  EXPECT_EQ(StB, FrameType::CompileOk);
  EXPECT_EQ(StC, FrameType::Rejected);
  S.shutdown();
}

// Graceful drain under load: every request is answered or typed-refused,
// nothing hangs, and the server joins all threads with clients mid-flight.
TEST(Server, GracefulShutdownUnderLoad) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("drain");
  SO.Workers = 2;
  SO.QueueCapacity = 16;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Answered{0}, Dropped{0};
  std::vector<std::thread> Clients;
  std::string Text = workloadText("wc");
  for (unsigned T = 0; T < 4; ++T)
    Clients.emplace_back([&] {
      std::string CErr;
      Client C = Client::connectUnix(SO.UnixPath, CErr);
      if (!C.valid())
        return;
      while (!Stop.load()) {
        CompileRequest Req;
        Req.IRText = Text;
        Req.HoldMs = 5; // keep a few requests in flight at drain time
        CompileResponse Resp;
        if (C.compile(Req, Resp, CErr, 30000))
          Answered++;
        else {
          Dropped++; // connection torn down post-drain: acceptable
          return;
        }
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  S.shutdown(); // must answer all in-flight work and join everything
  Stop.store(true);
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GT(Answered.load(), 0u);
  // Drain answered every admitted request; only requests sent after the
  // readers exited can be dropped, at most one per connection.
  EXPECT_LE(Dropped.load(), 4u);
}

// server.* observability: counters and the queue-depth distribution are
// registered and snapshot-able through the normal registry path.
TEST(Server, CountersRegistered) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  CR.enable();
  {
    ServerOptions SO;
    SO.UnixPath = uniqueSockPath("counters");
    SO.Workers = 2;
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(Err)) << Err;
    Client C = Client::connectUnix(SO.UnixPath, Err);
    ASSERT_TRUE(C.valid()) << Err;
    for (int K = 0; K < 3; ++K) {
      CompileRequest Req;
      Req.IRText = workloadText("eqntott");
      CompileResponse Resp;
      ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
      ASSERT_TRUE(Resp.ok()) << Resp.Message;
    }
    S.shutdown();
  }
  CR.disable();
  std::string Snap = CR.snapshotText();
  EXPECT_NE(Snap.find("server.connections"), std::string::npos) << Snap;
  EXPECT_NE(Snap.find("server.requests"), std::string::npos);
  EXPECT_NE(Snap.find("server.accepted"), std::string::npos);
  EXPECT_NE(Snap.find("server.completed"), std::string::npos);
  EXPECT_NE(Snap.find("server.bytes_in"), std::string::npos);
  EXPECT_NE(Snap.find("server.bytes_out"), std::string::npos);
  EXPECT_NE(Snap.find("server.queue_depth"), std::string::npos);
  CR.reset();
}

// The load generator end-to-end, closed loop and open loop.
TEST(LoadGen, ClosedAndOpenLoop) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("loadgen");
  SO.Workers = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  LoadGenOptions LO;
  LO.UnixPath = SO.UnixPath;
  LO.Workloads = {"eqntott", "wc"};
  LO.Concurrency = 4;
  LO.Requests = 16;
  LoadGenReport R;
  ASSERT_TRUE(runLoadGen(LO, R, Err)) << Err;
  EXPECT_EQ(R.Ok, 16u);
  EXPECT_GT(R.Throughput, 0.0);
  EXPECT_GE(R.P99Ms, R.P50Ms);

  LO.Qps = 500; // open loop
  ASSERT_TRUE(runLoadGen(LO, R, Err)) << Err;
  EXPECT_EQ(R.Ok, 16u);
  S.shutdown();
}

TEST(LoadGen, PercentileMath) {
  std::vector<double> V = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(latencyPercentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(latencyPercentile(V, 100), 10.0);
  EXPECT_DOUBLE_EQ(latencyPercentile(V, 50), 5.5);
  EXPECT_DOUBLE_EQ(latencyPercentile({}, 50), 0.0);
}

// --- Telemetry plane --------------------------------------------------------

TEST(Protocol, StatsRequestRoundTrip) {
  for (const char *Fmt : {"json", "prom", "text"}) {
    StatsRequest R;
    R.Format = Fmt;
    StatsRequest Out;
    std::string Err;
    ASSERT_TRUE(decodeStatsRequest(encodeStatsRequest(R), Out, Err)) << Err;
    EXPECT_EQ(Out.Format, Fmt);
  }
  StatsRequest Out;
  std::string Err;
  EXPECT_FALSE(decodeStatsRequest("format=xml\n\n", Out, Err));
  EXPECT_NE(Err.find("unknown stats format"), std::string::npos) << Err;
  EXPECT_FALSE(decodeStatsRequest("fromat=json\n\n", Out, Err));
  EXPECT_NE(Err.find("unknown stats-request field"), std::string::npos) << Err;
}

// A StatsRequest is answered while a compile is in flight — live
// introspection must not wait for the queue to drain.
TEST(Server, StatsRequestLiveSnapshot) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("stats-live");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // One completed request so server.latency_us has a sample.
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;
  CompileRequest Req;
  Req.IRText = workloadText("wc");
  CompileResponse Resp;
  ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
  ASSERT_TRUE(Resp.ok()) << Resp.Message;

  // Occupy the only worker, then introspect mid-flight.
  std::thread Holder([&] {
    std::string CErr;
    Client H = Client::connectUnix(SO.UnixPath, CErr);
    if (!H.valid())
      return;
    CompileRequest HReq;
    HReq.IRText = workloadText("wc");
    HReq.HoldMs = 400;
    CompileResponse HResp;
    H.compile(HReq, HResp, CErr, 60000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string Doc;
  ASSERT_TRUE(C.stats("json", Doc, Err, 5000)) << Err;
  EXPECT_NE(Doc.find("\"schema\": 1"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"server.latency_us\""), std::string::npos);
  EXPECT_NE(Doc.find("\"server.inflight\""), std::string::npos);
  std::string Prom;
  ASSERT_TRUE(C.stats("prom", Prom, Err, 5000)) << Err;
  EXPECT_NE(Prom.find("# TYPE lsra_server_completed counter"),
            std::string::npos)
      << Prom;
  std::string Text;
  ASSERT_TRUE(C.stats("text", Text, Err, 5000)) << Err;
  EXPECT_NE(Text.find("lsra telemetry snapshot"), std::string::npos) << Text;

  Holder.join();
  S.shutdown();
}

// The queue-depth gauge is transition-consistent: enqueued == dequeued and
// the gauge reads zero once the server has drained.
TEST(Server, QueueGaugeConsistentAfterDrain) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  {
    ServerOptions SO;
    SO.UnixPath = uniqueSockPath("gauge");
    SO.Workers = 2;
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(Err)) << Err; // start() enables the registry
    Client C = Client::connectUnix(SO.UnixPath, Err);
    ASSERT_TRUE(C.valid()) << Err;
    for (int K = 0; K < 6; ++K) {
      CompileRequest Req;
      Req.IRText = workloadText("wc");
      CompileResponse Resp;
      ASSERT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
      ASSERT_TRUE(Resp.ok()) << Resp.Message;
    }
    S.shutdown();
  }
  uint64_t Enq = CR.counter("server.enqueued").value();
  uint64_t Deq = CR.counter("server.dequeued").value();
  EXPECT_EQ(Enq, Deq);
  EXPECT_GE(Enq, 6u);
  EXPECT_EQ(CR.gauge("server.queue_depth").value(), 0);
  EXPECT_EQ(CR.gauge("server.inflight").value(), 0);
  CR.disable();
  CR.reset();
}

// A request held behind a busy single worker reports a non-zero
// server-side queue wait on the wire.
TEST(Server, QueueWaitReportedOnWire) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("queue-wait");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::thread Holder([&] {
    std::string CErr;
    Client H = Client::connectUnix(SO.UnixPath, CErr);
    if (!H.valid())
      return;
    CompileRequest Req;
    Req.IRText = workloadText("wc");
    Req.HoldMs = 300;
    CompileResponse Resp;
    H.compile(Req, Resp, CErr, 60000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;
  CompileRequest Req;
  Req.IRText = workloadText("wc");
  CompileResponse Resp;
  ASSERT_TRUE(C.compile(Req, Resp, Err, 60000)) << Err;
  Holder.join();
  ASSERT_TRUE(Resp.ok()) << Resp.Message;
  // Queued behind ~200ms of remaining hold; tens of milliseconds at least.
  EXPECT_GT(Resp.QueueUs, 10000u);
  S.shutdown();
}

TEST(LoadGen, RecordOutWritesJoinableJsonl) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("records");
  SO.Workers = 2;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::string Path = "/tmp/lsra-test-records." +
                     std::to_string(::getpid()) + ".jsonl";
  LoadGenOptions LO;
  LO.UnixPath = SO.UnixPath;
  LO.Workloads = {"eqntott", "wc"};
  LO.Concurrency = 2;
  LO.Requests = 8;
  LO.RecordOut = Path;
  LoadGenReport R;
  ASSERT_TRUE(runLoadGen(LO, R, Err)) << Err;
  EXPECT_EQ(R.Ok, 8u);
  S.shutdown();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::set<uint64_t> Ids;
  size_t Lines = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ++Lines;
    EXPECT_NE(Line.find("\"kind\": \"client-request\""), std::string::npos)
        << Line;
    EXPECT_NE(Line.find("\"send_ns\": "), std::string::npos);
    EXPECT_NE(Line.find("\"recv_ns\": "), std::string::npos);
    EXPECT_NE(Line.find("\"queue_us\": "), std::string::npos);
    size_t P = Line.find("\"id\": ");
    ASSERT_NE(P, std::string::npos) << Line;
    Ids.insert(std::strtoull(Line.c_str() + P + 6, nullptr, 10));
  }
  EXPECT_EQ(Lines, 8u);
  EXPECT_EQ(Ids.size(), 8u); // ids unique across client threads
  std::remove(Path.c_str());
}

// With every telemetry sink off (no sampling, no request log, tracer
// disabled) steady-state cached serving is allocation-flat: a batch of
// requests costs the same heap-allocation count as the previous batch,
// and the replies stay byte-identical.
TEST(Server, SteadyStateAllocFlat) {
  if (!allocProfileAvailable())
    GTEST_SKIP() << "allocation profile unavailable (sanitized build)";

  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("alloc-flat");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Client C = Client::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  CompileRequest Req;
  Req.IRText = workloadText("wc");
  auto batch = [&](unsigned N, std::string *FirstText) -> uint64_t {
    AllocSnapshot Before = allocSnapshot();
    for (unsigned K = 0; K < N; ++K) {
      CompileResponse Resp;
      EXPECT_TRUE(C.compile(Req, Resp, Err, 30000)) << Err;
      EXPECT_TRUE(Resp.ok()) << Resp.Message;
      EXPECT_TRUE(Resp.Cached);
      if (FirstText) {
        if (FirstText->empty())
          *FirstText = Resp.IRText;
        else
          EXPECT_EQ(Resp.IRText, *FirstText); // byte-identical replies
      }
    }
    return (allocSnapshot() - Before).Count;
  };

  // Cold compile + warmup (one-time lazy init: histograms, stripes, ...).
  CompileResponse Cold;
  ASSERT_TRUE(C.compile(Req, Cold, Err, 30000)) << Err;
  ASSERT_TRUE(Cold.ok()) << Cold.Message;
  std::string FirstText;
  batch(4, nullptr);

  constexpr unsigned N = 16;
  uint64_t A = batch(N, &FirstText);
  uint64_t B = batch(N, &FirstText);
  // Flat, not growing: the second batch may not allocate measurably more
  // than the first (small slack for queue/condvar node reuse jitter).
  EXPECT_LE(B, A + A / 10 + 64)
      << "per-batch alloc count grew: " << A << " -> " << B;
  S.shutdown();
}

// --- In-flight merging and pipelining ---------------------------------------

// A burst of identical requests while the first is still compiling runs the
// compile exactly once: the followers join the in-flight entry (no queue
// slot), every reply is byte-identical, and the followers carry merged=1.
TEST(Server, DuplicateBurstMergesToOneCompile) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  CR.enable();

  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("merge");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Identical payloads (same HoldMs — it is part of the merge key) so the
  // followers join the leader's in-flight compile. NoCache keeps the cache
  // out of the picture: a hit would also produce identical replies, which
  // is not what this test is about.
  const std::string Text = workloadText("wc");
  constexpr unsigned Followers = 4;
  auto sendOne = [&](CompileResponse *Out, bool *Ok) {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(C.valid()) << CErr;
    CompileRequest Req;
    Req.IRText = Text;
    Req.HoldMs = 300;
    Req.NoCache = true;
    *Ok = C.compile(Req, *Out, CErr, 60000);
  };
  CompileResponse Leader;
  bool LeaderOk = false;
  std::thread LeaderT([&] { sendOne(&Leader, &LeaderOk); });
  // Let the leader reach the worker (it sleeps HoldMs there).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CompileResponse FResp[Followers];
  bool FOk[Followers] = {};
  std::vector<std::thread> FT;
  for (unsigned I = 0; I < Followers; ++I)
    FT.emplace_back([&, I] { sendOne(&FResp[I], &FOk[I]); });
  LeaderT.join();
  for (std::thread &T : FT)
    T.join();

  ASSERT_TRUE(LeaderOk);
  ASSERT_TRUE(Leader.ok()) << Leader.Message;
  EXPECT_FALSE(Leader.Merged);
  unsigned Merged = 0;
  for (unsigned I = 0; I < Followers; ++I) {
    ASSERT_TRUE(FOk[I]);
    ASSERT_TRUE(FResp[I].ok()) << FResp[I].Message;
    EXPECT_EQ(FResp[I].IRText, Leader.IRText); // byte-identical fan-out
    if (FResp[I].Merged)
      Merged++;
  }
  EXPECT_EQ(Merged, Followers);

  S.shutdown();
  CR.disable();
  // Exactly one compile was dispatched: the followers never took a queue
  // slot, so only the leader's batch was ever dequeued.
  EXPECT_EQ(CR.counter("server.merged").value(), uint64_t(Followers));
  EXPECT_EQ(CR.counter("server.dequeued").value(), 1u);
  CR.reset();
}

// A merge leader whose result the cache refuses to admit (entry larger
// than the cache budget) must still fan out to every waiter: admission
// into the cache and fan-out to the merge table are independent outcomes
// of the one compile. (Regression: N waiters, 1 dequeue, 0 hangs, 0 cache
// entries — a fan-out keyed off the cache-insert path would strand the
// waiters here until their deadlines.)
TEST(Server, MergeFanOutSurvivesCacheAdmissionReject) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  CR.enable();

  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("merge-reject");
  SO.Workers = 1;
  // Tiny budget: any real module's allocated text (plus entry overhead)
  // exceeds it, so the leader's insert is rejected at admission. Caching
  // stays ON — the rejection path is the point.
  SO.CacheBytes = 1 << 10;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  ASSERT_NE(S.compileCache(), nullptr);

  const std::string Text = workloadText("wc");
  constexpr unsigned Followers = 4;
  auto sendOne = [&](CompileResponse *Out, bool *Ok) {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(C.valid()) << CErr;
    CompileRequest Req;
    Req.IRText = Text;
    Req.HoldMs = 300;
    *Ok = C.compile(Req, *Out, CErr, 60000);
  };
  CompileResponse Leader;
  bool LeaderOk = false;
  std::thread LeaderT([&] { sendOne(&Leader, &LeaderOk); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CompileResponse FResp[Followers];
  bool FOk[Followers] = {};
  std::vector<std::thread> FT;
  for (unsigned I = 0; I < Followers; ++I)
    FT.emplace_back([&, I] { sendOne(&FResp[I], &FOk[I]); });
  LeaderT.join();
  for (std::thread &T : FT)
    T.join();

  ASSERT_TRUE(LeaderOk);
  ASSERT_TRUE(Leader.ok()) << Leader.Message;
  for (unsigned I = 0; I < Followers; ++I) {
    ASSERT_TRUE(FOk[I]); // nobody hung waiting on a fan-out that never came
    ASSERT_TRUE(FResp[I].ok()) << FResp[I].Message;
    EXPECT_EQ(FResp[I].IRText, Leader.IRText);
    EXPECT_TRUE(FResp[I].Merged);
  }
  // The oversize result was indeed refused by the cache...
  EXPECT_EQ(S.compileCache()->stats().Entries, 0u);

  S.shutdown();
  CR.disable();
  // ...yet the merge behaved exactly like the admitted case: one dispatch,
  // every follower fanned out.
  EXPECT_EQ(CR.counter("server.merged").value(), uint64_t(Followers));
  EXPECT_EQ(CR.counter("server.dequeued").value(), 1u);
  EXPECT_EQ(CR.counter("server.deadline_exceeded").value(), 0u);
  CR.reset();
}

// Two server lifetimes sharing one L2 segment: the second server's first
// compile of a module the first server already served is an L2 hit with a
// byte-identical response — the cross-process warm-start story at the
// serving layer (sequential lifetimes here; the ctest leg runs two live
// processes).
TEST(Server, SharedL2WarmsSecondServerLifetime) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.reset();
  std::string SegPath = "/tmp/lsra-test-l2-serve." +
                        std::to_string(::getpid()) + ".seg";
  ::unlink(SegPath.c_str());
  const std::string Text = workloadText("eqntott");

  std::string ColdText;
  {
    ServerOptions SO;
    SO.UnixPath = uniqueSockPath("l2-cold");
    SO.Workers = 2;
    SO.L2Path = SegPath;
    SO.L2Bytes = 16u << 20;
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(Err)) << Err;
    ASSERT_NE(S.sharedCache(), nullptr);
    Client C = Client::connectUnix(SO.UnixPath, Err);
    ASSERT_TRUE(C.valid()) << Err;
    CompileRequest Req;
    Req.IRText = Text;
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, Err, 60000)) << Err;
    ASSERT_TRUE(Resp.ok()) << Resp.Message;
    EXPECT_FALSE(Resp.Cached);
    ColdText = Resp.IRText;
    // shutdown() drains queued L2 publications before the segment closes.
    S.shutdown();
  }

  {
    ServerOptions SO;
    SO.UnixPath = uniqueSockPath("l2-warm");
    SO.Workers = 2;
    SO.L2Path = SegPath;
    SO.L2Bytes = 16u << 20;
    Server S(SO);
    std::string Err;
    ASSERT_TRUE(S.start(Err)) << Err;
    ASSERT_NE(S.sharedCache(), nullptr);
    Client C = Client::connectUnix(SO.UnixPath, Err);
    ASSERT_TRUE(C.valid()) << Err;
    CompileRequest Req;
    Req.IRText = Text;
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, Err, 60000)) << Err;
    ASSERT_TRUE(Resp.ok()) << Resp.Message;
    // A fresh L1 cannot have this module; only the shared segment can.
    EXPECT_TRUE(Resp.Cached);
    EXPECT_EQ(Resp.IRText, ColdText);
    EXPECT_EQ(S.sharedCache()->stats().Hits, 1u);
    S.shutdown();
  }
  ::unlink(SegPath.c_str());
  CR.disable();
  CR.reset();
}

// A waiter that disconnects mid-merge must not corrupt the fan-out: the
// remaining waiters still get correct replies and the server stays up.
TEST(Server, MidMergeDisconnectLeavesWaitersIntact) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("merge-dc");
  SO.Workers = 1;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  const std::string Text = workloadText("wc");
  auto makeReq = [&] {
    CompileRequest Req;
    Req.IRText = Text;
    Req.HoldMs = 400;
    Req.NoCache = true;
    return Req;
  };

  CompileResponse Leader, Survivor;
  bool LeaderOk = false, SurvivorOk = false;
  std::thread LeaderT([&] {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(C.valid()) << CErr;
    LeaderOk = C.compile(makeReq(), Leader, CErr, 60000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Two more join the merge; one of them hangs up before the compile
  // finishes (its reply lands on a dead connection — a silent no-op).
  std::thread SurvivorT([&] {
    std::string CErr;
    Client C = Client::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(C.valid()) << CErr;
    SurvivorOk = C.compile(makeReq(), Survivor, CErr, 60000);
  });
  {
    std::string CErr;
    Socket Quitter = Socket::connectUnix(SO.UnixPath, CErr);
    ASSERT_TRUE(Quitter.valid()) << CErr;
    ASSERT_TRUE(Quitter.sendFrame(99, FrameType::CompileRequest,
                                  encodeCompileRequest(makeReq()), CErr))
        << CErr;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } // Quitter's destructor closes the socket mid-merge

  LeaderT.join();
  SurvivorT.join();
  ASSERT_TRUE(LeaderOk);
  ASSERT_TRUE(SurvivorOk);
  ASSERT_TRUE(Leader.ok()) << Leader.Message;
  ASSERT_TRUE(Survivor.ok()) << Survivor.Message;
  EXPECT_EQ(Survivor.IRText, Leader.IRText);
  EXPECT_TRUE(Survivor.Merged);
  S.shutdown();
}

// Pipelining: two requests in flight on one connection, the slow one sent
// first; the fast one's response overtakes it (matched by id, not order).
TEST(Server, PipelinedResponsesOutOfOrder) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("ooo");
  SO.Workers = 2; // both requests compile concurrently
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Socket C = Socket::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;

  CompileRequest Slow;
  Slow.IRText = workloadText("wc");
  Slow.HoldMs = 250;
  CompileRequest Fast;
  Fast.IRText = workloadText("eqntott");
  ASSERT_TRUE(C.sendFrame(7, FrameType::CompileRequest,
                          encodeCompileRequest(Slow), Err))
      << Err;
  ASSERT_TRUE(C.sendFrame(8, FrameType::CompileRequest,
                          encodeCompileRequest(Fast), Err))
      << Err;

  uint32_t Id1 = 0, Id2 = 0;
  FrameType T1, T2;
  std::string P1, P2;
  ASSERT_EQ(C.recvFrame(Id1, T1, P1, 30000, Err), Socket::RecvStatus::Ok)
      << Err;
  ASSERT_EQ(C.recvFrame(Id2, T2, P2, 30000, Err), Socket::RecvStatus::Ok)
      << Err;
  // The fast request (id 8) finished while the slow one (id 7) was still
  // holding its worker.
  EXPECT_EQ(Id1, 8u);
  EXPECT_EQ(Id2, 7u);
  CompileResponse R1, R2;
  ASSERT_TRUE(decodeCompileResponse(T1, P1, R1, Err)) << Err;
  ASSERT_TRUE(decodeCompileResponse(T2, P2, R2, Err)) << Err;
  EXPECT_TRUE(R1.ok()) << R1.Message;
  EXPECT_TRUE(R2.ok()) << R2.Message;
  S.shutdown();
}

// Write-path robustness: a client with tiny socket buffers that stops
// reading while dozens of responses are queued forces the server through
// its partial-write path (EPOLLOUT re-arming, queued-frame writev). Every
// response must still arrive complete and correct.
TEST(Server, PartialWritesWithTinySocketBuffers) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("tinybuf");
  SO.Workers = 2;
  SO.QueueCapacity = 256;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Socket C = Socket::connectUnix(SO.UnixPath, Err);
  ASSERT_TRUE(C.valid()) << Err;
  // Tiny SO_SNDBUF on the client squeezes both directions of the unix
  // socket pair: our sends go out in small chunks (client writeAll loop)
  // and the server's replies hit a small in-flight window, forcing short
  // writes on its side while we sleep instead of reading.
  C.setSendBufferBytes(4096);

  const char *Names[] = {"wc", "eqntott", "alvinn", "espresso"};
  std::string Texts[4];
  for (int I = 0; I < 4; ++I)
    Texts[I] = workloadText(Names[I]);

  constexpr uint32_t N = 96;
  for (uint32_t K = 0; K < N; ++K) {
    CompileRequest Req;
    Req.IRText = Texts[K % 4];
    ASSERT_TRUE(C.sendFrame(K + 1, FrameType::CompileRequest,
                            encodeCompileRequest(Req), Err))
        << Err << " at " << K;
  }
  // Let responses pile up in the server's write queue before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::string PerWorkload[4];
  std::set<uint32_t> Seen;
  for (uint32_t K = 0; K < N; ++K) {
    uint32_t Id;
    FrameType T;
    std::string Payload;
    ASSERT_EQ(C.recvFrame(Id, T, Payload, 30000, Err), Socket::RecvStatus::Ok)
        << Err << " after " << K << " frames";
    ASSERT_GE(Id, 1u);
    ASSERT_LE(Id, N);
    EXPECT_TRUE(Seen.insert(Id).second) << "duplicate response id " << Id;
    CompileResponse Resp;
    ASSERT_TRUE(decodeCompileResponse(T, Payload, Resp, Err)) << Err;
    ASSERT_TRUE(Resp.ok()) << Resp.Message;
    // Same workload -> byte-identical allocated text, even through the
    // chunked writes.
    std::string &Expect = PerWorkload[(Id - 1) % 4];
    if (Expect.empty())
      Expect = Resp.IRText;
    else
      EXPECT_EQ(Resp.IRText, Expect) << "response " << Id << " corrupted";
  }
  EXPECT_EQ(Seen.size(), N);
  S.shutdown();
}

// The pipelined loadgen engine end-to-end against a live server, with
// offline verification on: many connections, deep pipelines, duplicate-
// heavy corpus -> merging visible, zero protocol errors, zero mismatches.
TEST(LoadGen, PipelinedEngineVerifies) {
  ServerOptions SO;
  SO.UnixPath = uniqueSockPath("pipe-lg");
  SO.Workers = 2;
  SO.QueueCapacity = 256;
  Server S(SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  LoadGenOptions LO;
  LO.UnixPath = SO.UnixPath;
  LO.Connections = 16;
  LO.Pipeline = 4;
  LO.Requests = 200;
  LO.UniquePrograms = 4; // duplicate-heavy: plenty of cache hits + merges
  LO.Verify = true;
  LoadGenReport R;
  ASSERT_TRUE(runLoadGen(LO, R, Err)) << Err;
  EXPECT_EQ(R.Ok, 200u);
  EXPECT_EQ(R.ProtocolErrors, 0u);
  EXPECT_EQ(R.VerifyMismatches, 0u);
  EXPECT_EQ(R.TransportErrors, 0u);
  EXPECT_GT(R.CachedResponses, 0u);
  S.shutdown();
}
