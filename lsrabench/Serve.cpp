//===- lsrabench/Serve.cpp - serve-mix ------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mix: an `lsra serve` child process (2 workers, every other setting
/// at the server default) driven closed-loop by one client thread over 2
/// connections, one request in flight on each. The seeded request stream
/// keeps a working set of two texts per program: every 4th request is a
/// fresh text (the program with a new leading comment line, so the
/// module-level cache misses) and the rest repeat a text of the working
/// set. The programs are fixed (the corpus and the code-cold random programs
/// 1..8); the seed draws the stream. Every response is compared byte for byte with the first
/// response for the same program, and that one with an offline
/// compileTextModule of the exact text it answered.
///
/// Layer metrics come from the outside: the server's StatsRequest counters
/// and histograms, diffed across the traced phase, and the per-response
/// queue_us field.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "driver/Pipeline.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Metrics.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Socket.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace lsra;
using namespace lsra::server;

namespace lsrabench {
namespace {

constexpr unsigned Connections = 2; ///< one per worker
constexpr unsigned ServerWorkers = 2;
constexpr unsigned CodeHeavyPrograms = 8;
constexpr unsigned SlotsPerProgram = 2; ///< working-set texts per program
constexpr unsigned FreshOneIn = 4;      ///< about 1 request in 4 is fresh
/// Set-ups before and after the timed phases; setup_s is their median.
constexpr unsigned SetupRepsEachEnd = 3;
constexpr double UntracedShareInTraceRun = 0.4;

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(OS, M);
  return OS.str();
}

std::vector<std::string> buildBases() {
  std::vector<std::string> Bases;
  for (const WorkloadSpec &S : allWorkloads())
    Bases.push_back(printed(*S.Build()));
  RandomProgramOptions RO; // the code-cold random programs
  RO.Statements = 300;
  RO.HelperFuncs = 4;
  for (uint64_t S = 1; S <= CodeHeavyPrograms; ++S)
    Bases.push_back(printed(*buildRandomProgram(S, RO)));
  return Bases;
}

/// The text of request (Base, Variant): the program with a distinct
/// leading comment, so each variant is a new module-cache key.
std::string requestText(const std::vector<std::string> &Bases, unsigned Base,
                        uint64_t Variant) {
  return "; request variant " + std::to_string(Variant) + "\n" + Bases[Base];
}

/// An `lsra serve` child process; stopped (SIGTERM, then SIGKILL) and
/// reaped by the destructor.
class ServerProcess {
public:
  ServerProcess(const std::string &Tool, const std::string &Sock)
      : Sock(Sock) {
    ::unlink(Sock.c_str());
    Pid = ::fork();
    if (Pid == 0) {
      int Null = ::open("/dev/null", O_WRONLY);
      if (Null >= 0)
        ::dup2(Null, STDOUT_FILENO);
      std::string SockArg = "--socket=" + Sock;
      std::string WorkersArg = "--workers=" + std::to_string(ServerWorkers);
      ::execl(Tool.c_str(), Tool.c_str(), "serve", SockArg.c_str(),
              WorkersArg.c_str(), static_cast<char *>(nullptr));
      std::fprintf(stderr, "lsrabench: cannot exec %s: %s\n", Tool.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  int pid() const { return Pid; }

  /// Waits until the server answers a ping (false after 20 s or if the
  /// child exited).
  bool waitReady() {
    for (int I = 0; I < 2000; ++I) {
      int St;
      if (Pid <= 0 || ::waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::string Err;
      Client C = Client::connectUnix(Sock, Err);
      if (C.valid() && C.ping(Err, 1000))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int St;
    for (int I = 0; I < 1000; ++I) {
      if (::waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &St, 0);
      Pid = -1;
    }
    ::unlink(Sock.c_str());
  }

private:
  std::string Sock;
  int Pid = -1;
};

/// The seeded request stream: (program, variant) pairs. Slot K of the
/// working set always holds a text of program K % programs, so every
/// program keeps the same share of the traffic. Every FreshOneIn-th
/// request gives the next slot of a seeded cyclic order a fresh text and
/// the others repeat a random slot, so every second of the run sees the
/// same mix, with the expensive code-heavy misses spread out.
class Stream {
public:
  Stream(uint64_t Seed, unsigned NumBases)
      : G(Seed), Slots(NumBases * SlotsPerProgram), FreshOrder(Slots.size()) {
    for (size_t K = 0; K < Slots.size(); ++K) {
      Slots[K] = {static_cast<unsigned>(K % NumBases), 0};
      FreshOrder[K] = static_cast<unsigned>(K);
    }
    shuffle(FreshOrder, G);
  }

  std::pair<unsigned, uint64_t> next() {
    bool Fresh = Sent++ % FreshOneIn == 0;
    std::pair<unsigned, uint64_t> &S =
        Slots[Fresh ? FreshOrder[NextFresh++ % Slots.size()]
                    : G.below(Slots.size())];
    if (Fresh || S.second == 0) // variant 0: the slot was never sent
      S.second = NextVariant++;
    return S;
  }

private:
  Rng G;
  uint64_t Sent = 0, NextFresh = 0, NextVariant = 1;
  std::vector<std::pair<unsigned, uint64_t>> Slots;
  std::vector<unsigned> FreshOrder;
};

/// What one closed-loop phase observed.
struct PhaseStats {
  std::vector<double> LatMs;
  std::vector<double> QueueUs;
  uint64_t Cached = 0, Merged = 0, Bytes = 0, IrIn = 0, IrOut = 0;
  double Start = 0, End = 0;
};

/// First response per program, compared against every later one and,
/// at the end, against an offline compile of the exact text it answered.
struct Expected {
  std::string Text;
  uint64_t Variant = 0;
  bool Have = false;
};

struct Conn {
  Socket S;
  FrameDecoder D;
  bool Busy = false;
  double SentAt = 0;
  uint32_t Id = 0;
  unsigned Base = 0;
  uint64_t Variant = 0;
  uint64_t ReqBytes = 0;
};

/// Drives the closed loop for \p Seconds; false on a broken connection.
bool runPhase(std::vector<Conn> &Conns, Stream &St,
              const std::vector<std::string> &Bases,
              std::vector<Expected> &Exp, double Seconds, PhaseStats &P,
              Result &R) {
  uint32_t NextId = 1;
  P.Start = nowSec();
  double Deadline = P.Start + Seconds;
  auto Send = [&](Conn &C) {
    auto [B, V] = St.next();
    CompileRequest Req;
    Req.Allocator = "binpack";
    Req.IRText = requestText(Bases, B, V);
    std::string Payload = encodeCompileRequest(Req);
    std::string Err;
    C.Id = NextId++;
    C.Base = B;
    C.Variant = V;
    C.ReqBytes = FrameHeaderBytes + Payload.size();
    P.IrIn += Req.IRText.size();
    C.SentAt = nowSec();
    ++R.Attempted;
    if (!C.S.sendFrame(C.Id, FrameType::CompileRequest, Payload, Err)) {
      R.fail("send: " + Err);
      return false;
    }
    C.Busy = true;
    return true;
  };
  for (Conn &C : Conns)
    if (!Send(C))
      return false;
  std::vector<char> Buf(1 << 18);
  std::vector<pollfd> Fds(Conns.size());
  for (;;) {
    size_t Busy = 0;
    for (size_t I = 0; I < Conns.size(); ++I) {
      Fds[I].fd = Conns[I].Busy ? Conns[I].S.fd() : -1;
      Fds[I].events = POLLIN;
      Fds[I].revents = 0;
      Busy += Conns[I].Busy;
    }
    if (!Busy)
      break;
    int N = ::poll(Fds.data(), Fds.size(), 30000);
    if (N <= 0) {
      R.fail("no response within 30 s");
      return false;
    }
    for (size_t I = 0; I < Conns.size(); ++I) {
      if (!Fds[I].revents)
        continue;
      Conn &C = Conns[I];
      ssize_t Got = ::recv(C.S.fd(), Buf.data(), Buf.size(), MSG_DONTWAIT);
      if (Got <= 0) {
        if (Got < 0 && (errno == EAGAIN || errno == EINTR))
          continue;
        R.fail("connection closed by the server");
        return false;
      }
      C.D.append(Buf.data(), static_cast<size_t>(Got));
      FrameDecoder::Frame F;
      FrameDecoder::Status DS;
      while ((DS = C.D.next(F)) == FrameDecoder::Status::Frame) {
        double Now = nowSec();
        CompileResponse Resp;
        std::string Err;
        if (F.RequestId != C.Id || !C.Busy) {
          R.fail("response for an unknown request id");
          return false;
        }
        C.Busy = false;
        if (!decodeCompileResponse(F.Type, F.Payload, Resp, Err)) {
          R.fail("undecodable response: " + Err);
          continue;
        }
        if (!Resp.ok()) {
          R.fail(std::string(frameTypeName(Resp.Status)) + ": " +
                 Resp.Message);
          continue;
        }
        Expected &E = Exp[C.Base];
        if (!E.Have) {
          E.Text = Resp.IRText;
          E.Variant = C.Variant;
          E.Have = true;
        } else if (Resp.IRText != E.Text) {
          R.fail("response bytes differ from an earlier response for the "
                 "same program");
        }
        P.LatMs.push_back((Now - C.SentAt) * 1e3);
        P.QueueUs.push_back(static_cast<double>(Resp.QueueUs));
        P.Cached += Resp.Cached;
        P.Merged += Resp.Merged;
        P.Bytes += C.ReqBytes + FrameHeaderBytes + F.Payload.size();
        P.IrOut += Resp.IRText.size();
      }
      if (DS == FrameDecoder::Status::Error) {
        R.fail("frame error: " + F.Err);
        return false;
      }
      if (!C.Busy && nowSec() < Deadline && !Send(C))
        return false;
    }
  }
  P.End = nowSec();
  return true;
}

//--- the server's stats document --------------------------------------------

/// Reads `"Name": <number>` inside the object that follows `"Section": {`.
double statsNumber(const std::string &Doc, const std::string &Section,
                   const std::string &Name) {
  size_t S = Doc.find("\"" + Section + "\": {");
  if (S == std::string::npos)
    return 0;
  size_t K = Doc.find("\"" + Name + "\": ", S);
  size_t End = Doc.find('}', S);
  if (K == std::string::npos || K > End)
    return 0;
  return std::strtod(Doc.c_str() + K + Name.size() + 4, nullptr);
}

/// The lifetime histogram \p Name as a snapshot (buckets, sum).
obs::HistogramSnapshot statsHistogram(const std::string &Doc,
                                      const std::string &Name) {
  obs::HistogramSnapshot H;
  H.Buckets.assign(obs::HistogramLayout::NumBuckets, 0);
  size_t S = Doc.find("\"" + Name + "\": {\"life\": {");
  if (S == std::string::npos)
    return H;
  size_t SumAt = Doc.find("\"sum\": ", S);
  H.Sum = std::strtoull(Doc.c_str() + SumAt + 7, nullptr, 10);
  size_t B = Doc.find("\"buckets\": [", S) + 12;
  size_t End = Doc.find("]]", B);
  while (B < End) {
    size_t Open = Doc.find('[', B);
    if (Open == std::string::npos || Open > End)
      break;
    char *P = nullptr;
    uint64_t Low = std::strtoull(Doc.c_str() + Open + 1, &P, 10);
    uint64_t Count = std::strtoull(P + 1, nullptr, 10);
    H.Buckets[obs::HistogramLayout::bucketIndex(Low)] += Count;
    H.Count += Count;
    B = Doc.find(']', Open) + 1;
  }
  return H;
}

/// \p After minus \p Before: the samples recorded in between.
obs::HistogramSnapshot histDelta(const obs::HistogramSnapshot &After,
                                 const obs::HistogramSnapshot &Before) {
  obs::HistogramSnapshot D = After;
  D.Count = 0;
  D.Sum = After.Sum - Before.Sum;
  uint32_t Lo = UINT32_MAX, Hi = 0;
  for (size_t I = 0; I < D.Buckets.size(); ++I) {
    D.Buckets[I] -= Before.Buckets[I];
    D.Count += D.Buckets[I];
    if (D.Buckets[I]) {
      Lo = std::min<uint32_t>(Lo, static_cast<uint32_t>(I));
      Hi = static_cast<uint32_t>(I);
    }
  }
  D.Min = D.Count ? obs::HistogramLayout::bucketLow(Lo) : 0;
  D.Max = D.Count ? obs::HistogramLayout::bucketHigh(Hi) : 0;
  return D;
}

bool fetchStats(const std::string &Sock, std::string &Doc, Result &R) {
  std::string Err;
  Client C = Client::connectUnix(Sock, Err);
  if (!C.valid() || !C.stats("json", Doc, Err, 10000)) {
    R.fail("stats request failed: " + Err);
    return false;
  }
  return true;
}

} // namespace

int runServe(const Options &O, Result &R) {
  if (O.LsraTool.empty()) {
    std::fprintf(stderr, "lsrabench: serve-mix needs --lsra PATH\n");
    return 2;
  }
  std::string Sock = (O.WorkDir.empty() ? std::string(".") : O.WorkDir) +
                     "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: inputs, then a server started and answering pings. Repeated
  // before and after the timed phases, which are seconds apart.
  std::vector<std::string> Bases;
  std::unique_ptr<ServerProcess> Server;
  std::vector<double> SetupSec;
  auto SetUp = [&] {
    Server.reset();
    double T0 = nowSec();
    Bases = buildBases();
    Server = std::make_unique<ServerProcess>(O.LsraTool, Sock);
    if (!Server->waitReady())
      return false;
    SetupSec.push_back(nowSec() - T0);
    return true;
  };
  for (unsigned Rep = 0; Rep < SetupRepsEachEnd; ++Rep)
    if (!SetUp()) {
      std::fprintf(stderr, "lsrabench: server did not start\n");
      return 1;
    }

  std::vector<Conn> Conns(Connections);
  for (Conn &C : Conns) {
    std::string Err;
    C.S = Socket::connectUnix(Sock, Err);
    if (!C.S.valid()) {
      std::fprintf(stderr, "lsrabench: connect: %s\n", Err.c_str());
      return 1;
    }
  }
  Stream St(O.Seed, static_cast<unsigned>(Bases.size()));
  std::vector<Expected> Exp(Bases.size());
  double UntracedSec =
      O.Trace ? O.Seconds * UntracedShareInTraceRun : O.Seconds;
  PhaseStats U, T;
  std::string Before, After;
  bool Ok = runPhase(Conns, St, Bases, Exp, UntracedSec, U, R);
  if (Ok && O.Trace) {
    Ok = fetchStats(Sock, Before, R) &&
         runPhase(Conns, St, Bases, Exp, O.Seconds - UntracedSec, T, R) &&
         fetchStats(Sock, After, R);
  }
  double PeakRss = pidPeakRssMb(Server->pid());
  Conns.clear();
  Server.reset();
  if (!Ok)
    return 1;
  for (unsigned Rep = 0; Rep < SetupRepsEachEnd; ++Rep)
    if (!SetUp()) {
      std::fprintf(stderr, "lsrabench: server did not start\n");
      return 1;
    }
  Server.reset();

  // Output checks: the reference response of each program must equal an
  // offline compile of its exact text, and that code must reproduce the
  // unallocated program's run with caller-saved registers poisoned.
  TargetDesc TD = TargetDesc::alphaLike();
  uint64_t Cycles = 0, SpillDyn = 0, CodeInstrs = 0;
  uint64_t Lines = 0, MemLines = 0;
  for (size_t B = 0; B < Bases.size(); ++B) {
    countLines(Bases[B], Lines, MemLines);
    uint64_t Variant = Exp[B].Have ? Exp[B].Variant : 0;
    std::string Text = requestText(Bases, static_cast<unsigned>(B), Variant);
    TextCompileResult C =
        compileTextModule(Text, TD, AllocatorKind::SecondChanceBinpack);
    if (!C.Ok) {
      R.fail("offline compile failed: " + C.Error);
      continue;
    }
    if (Exp[B].Have && C.AllocatedText != Exp[B].Text)
      R.fail("served bytes differ from the offline compile of program " +
             std::to_string(B));
    ParseResult In = parseModule(Text), Out = parseModule(C.AllocatedText);
    if (!In.ok() || !Out.ok()) {
      R.fail("program " + std::to_string(B) + " does not re-parse");
      continue;
    }
    RunResult Ref = runReference(*In.M, TD);
    RunResult Got = runAllocated(*Out.M, TD);
    if (!Ref.Ok || !Got.Ok || Ref.ReturnValue != Got.ReturnValue ||
        Ref.Output != Got.Output) {
      R.fail("program " + std::to_string(B) +
             ": allocated run differs from the reference run");
      continue;
    }
    Cycles += Got.Stats.Cycles;
    SpillDyn += Got.Stats.spillInstrs();
    for (const auto &F : Out.M->functions())
      CodeInstrs += F->numInstrs();
  }
  double MemShare =
      Lines ? static_cast<double>(MemLines) / static_cast<double>(Lines) : 0;

  double Answered = static_cast<double>(U.LatMs.size());
  double P50 = median(U.LatMs);
  double TailP = tailPercentile(U.LatMs.size());
  char Note[128];
  std::snprintf(Note, sizeof(Note), "%zu requests in %.1f s",
                U.LatMs.size(), U.End - U.Start);
  R.e2e("ops_per_s", Answered / (U.End - U.Start), "ops/s", Note);
  R.e2e("op_p50_ms", P50, "ms");
  std::snprintf(Note, sizeof(Note), "p%g of %zu requests", TailP,
                U.LatMs.size());
  R.e2e("op_tail_ms", quantile(U.LatMs, TailP / 100.0), "ms", Note);
  R.e2e("setup_s", median(SetupSec), "s",
        "median of " + std::to_string(SetupSec.size()) + " set-ups");
  R.e2e("peak_rss_mb", PeakRss, "MiB", "server process");
  R.e2e("cycles", static_cast<double>(Cycles), "count");
  R.e2e("spill_dyn_instrs", static_cast<double>(SpillDyn), "count");
  R.e2e("code_instrs", static_cast<double>(CodeInstrs), "count");
  R.e2e("bytes_per_op", static_cast<double>(U.Bytes) / Answered, "bytes");
  char Regime[200];
  std::snprintf(Regime, sizeof(Regime),
                "regime: mem_line_share %.4f over %llu program lines; "
                "%.0f IR bytes in, %.0f out per request; cached %.3f",
                MemShare, (unsigned long long)Lines,
                static_cast<double>(U.IrIn) / Answered,
                static_cast<double>(U.IrOut) / Answered,
                static_cast<double>(U.Cached) / Answered);
  R.Notes.push_back(Regime);

  if (O.Trace) {
    double TN = static_cast<double>(T.LatMs.size());
    obs::HistogramSnapshot Lat =
        histDelta(statsHistogram(After, "server.latency_us"),
                  statsHistogram(Before, "server.latency_us"));
    obs::HistogramSnapshot Comp =
        histDelta(statsHistogram(After, "server.compile_us"),
                  statsHistogram(Before, "server.compile_us"));
    double Hits = statsNumber(After, "counters", "cache.hits") -
                  statsNumber(Before, "counters", "cache.hits");
    double Misses = statsNumber(After, "counters", "cache.misses") -
                    statsNumber(Before, "counters", "cache.misses");
    double ClientSumUs = 0;
    for (double Ms : T.LatMs)
      ClientSumUs += Ms * 1e3;
    double CompTail = tailPercentile(Comp.Count);
    R.layer("ir.bytes_in", static_cast<double>(T.IrIn) / TN, "bytes");
    R.layer("ir.bytes_out", static_cast<double>(T.IrOut) / TN, "bytes");
    R.layer("ir.mem_line_share", MemShare, "ratio");
    R.layer("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
            "ratio", "module and function lookups");
    R.layer("cache.bytes", statsNumber(After, "gauges", "cache.bytes"),
            "bytes");
    R.layer("server.latency_us_p50", static_cast<double>(Lat.percentile(50)),
            "us");
    R.layer("server.queue_us_p50", median(T.QueueUs), "us");
    R.layer("server.compile_us_p50", static_cast<double>(Comp.percentile(50)),
            "us");
    R.layer("server.compile_us_tail",
            static_cast<double>(Comp.percentile(CompTail)), "us",
            "p" + std::to_string(static_cast<int>(CompTail)));
    R.layer("server.cached_ratio", static_cast<double>(T.Cached) / TN,
            "ratio");
    R.layer("server.merged_ratio", static_cast<double>(T.Merged) / TN,
            "ratio");
    R.layer("net.wire_us_p50",
            median(T.LatMs) * 1e3 - static_cast<double>(Lat.percentile(50)),
            "us");
    R.layer("obs.layer_coverage",
            ClientSumUs > 0 ? static_cast<double>(Lat.Sum) / ClientSumUs : 0,
            "ratio", "server latency_us sum / client latency sum");
    R.layer("obs.trace_overhead", median(T.LatMs) / P50 - 1,
            "ratio", "traced / untraced op_p50_ms - 1");
  }
  return 0;
}

} // namespace lsrabench
