//===- server/LoadGen.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/LoadGen.h"

#include "driver/Pipeline.h"
#include "ir/Printer.h"
#include "net/Connection.h"
#include "net/EventLoop.h"
#include "obs/Json.h"
#include "regalloc/Allocator.h"
#include "server/Client.h"
#include "server/Socket.h"
#include "support/Timer.h"
#include "target/Target.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace lsra;
using namespace lsra::server;

double lsra::server::latencyPercentile(std::vector<double> SamplesMs,
                                       double P) {
  if (SamplesMs.empty())
    return 0;
  std::sort(SamplesMs.begin(), SamplesMs.end());
  double Rank = P / 100.0 * static_cast<double>(SamplesMs.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, SamplesMs.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return SamplesMs[Lo] + Frac * (SamplesMs[Hi] - SamplesMs[Lo]);
}

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One answered request, as the client saw it (--record-out).
struct RequestRecord {
  uint32_t Id;
  unsigned Conn;
  int64_t SendNs, RecvNs; ///< absolute steady-clock (joinable server-side)
  const char *Status;
  bool Cached;
  bool Merged;
  uint64_t QueueUs; ///< server-reported admission wait
  double LatencyMs;
};

struct WorkerResult {
  std::vector<double> LatenciesMs;
  std::vector<RequestRecord> Records;
  uint64_t Ok = 0, Rejected = 0, Deadline = 0, Errors = 0, Transport = 0;
  uint64_t Sent = 0, BytesSent = 0, BytesReceived = 0, Cached = 0;
  uint64_t Merged = 0, Protocol = 0, VerifyBad = 0;
};

/// Request-id base for thread-fleet connection \p T: disjoint million-wide
/// ranges. (The pipelined engine numbers requests globally instead.)
uint32_t requestIdBase(unsigned T) { return T * 1000000u + 1; }

/// Render the request corpus: either the named workloads or K seeded
/// random programs (repeated-mix mode).
bool buildCorpus(const LoadGenOptions &Opts, std::vector<std::string> &Corpus,
                 std::string &Err) {
  if (Opts.UniquePrograms) {
    // Repeated-mix mode: K seeded random programs, cycled by the senders,
    // so the expected server cache hit rate is (Requests - K) / Requests.
    for (unsigned I = 0; I < Opts.UniquePrograms; ++I) {
      std::ostringstream OS;
      printModule(OS, *buildRandomProgram(Opts.MixSeed + I));
      Corpus.push_back(OS.str());
    }
    return true;
  }
  if (Opts.Workloads.empty()) {
    Err = "no workloads given";
    return false;
  }
  // Render each workload to wire text once, up front.
  for (const std::string &Name : Opts.Workloads) {
    bool Found = false;
    for (const WorkloadSpec &W : allWorkloads())
      if (Name == W.Name) {
        std::ostringstream OS;
        printModule(OS, *W.Build());
        Corpus.push_back(OS.str());
        Found = true;
        break;
      }
    if (!Found) {
      Err = "no such workload: '" + Name + "'";
      return false;
    }
  }
  return true;
}

void tallyResponse(const CompileResponse &Resp, WorkerResult &R) {
  switch (Resp.Status) {
  case FrameType::CompileOk:
    R.Ok++;
    if (Resp.Cached)
      R.Cached++;
    break;
  case FrameType::Rejected:
    R.Rejected++;
    break;
  case FrameType::DeadlineExceeded:
    R.Deadline++;
    break;
  default:
    R.Errors++;
    break;
  }
  if (Resp.Merged)
    R.Merged++;
}

/// Merge per-worker tallies, write --record-out, compute percentiles.
void finalizeReport(const std::vector<WorkerResult> &Results,
                    std::ofstream &RecordOS, double WallSeconds,
                    LoadGenReport &Out) {
  Out = LoadGenReport();
  std::vector<double> All;
  for (const WorkerResult &R : Results) {
    Out.Sent += R.Sent;
    Out.Ok += R.Ok;
    Out.Rejected += R.Rejected;
    Out.DeadlineExceeded += R.Deadline;
    Out.Errors += R.Errors;
    Out.TransportErrors += R.Transport;
    Out.BytesSent += R.BytesSent;
    Out.BytesReceived += R.BytesReceived;
    Out.CachedResponses += R.Cached;
    Out.MergedResponses += R.Merged;
    Out.ProtocolErrors += R.Protocol;
    Out.VerifyMismatches += R.VerifyBad;
    All.insert(All.end(), R.LatenciesMs.begin(), R.LatenciesMs.end());
  }
  if (RecordOS.is_open()) {
    for (const WorkerResult &R : Results)
      for (const RequestRecord &Rec : R.Records) {
        obs::JsonObject O;
        O.field("kind", "client-request")
            .field("id", static_cast<uint64_t>(Rec.Id))
            .field("conn", Rec.Conn)
            .field("send_ns", static_cast<uint64_t>(Rec.SendNs))
            .field("recv_ns", static_cast<uint64_t>(Rec.RecvNs))
            .field("status", Rec.Status)
            .field("cached", Rec.Cached ? 1 : 0)
            .field("merged", Rec.Merged ? 1 : 0)
            .field("queue_us", Rec.QueueUs)
            .field("latency_ms", Rec.LatencyMs);
        RecordOS << O.str() << "\n";
      }
    RecordOS.close();
  }
  Out.WallSeconds = WallSeconds;
  uint64_t Answered = All.size();
  Out.Throughput =
      WallSeconds > 0 ? static_cast<double>(Answered) / WallSeconds : 0;
  if (!All.empty()) {
    double Sum = 0, Max = 0;
    for (double L : All) {
      Sum += L;
      Max = std::max(Max, L);
    }
    Out.MeanMs = Sum / static_cast<double>(All.size());
    Out.MaxMs = Max;
    Out.P50Ms = latencyPercentile(All, 50);
    Out.P95Ms = latencyPercentile(All, 95);
    Out.P99Ms = latencyPercentile(All, 99);
  }
}

//===----------------------------------------------------------------------===//
// Pipelined engine
//===----------------------------------------------------------------------===//

/// Event-driven load engine: Connections non-blocking sockets on one epoll
/// loop, up to Window requests pipelined on each, matched to responses by
/// globally-unique id. Single-threaded — the loop thread is the caller.
class PipelinedEngine {
public:
  PipelinedEngine(const LoadGenOptions &Opts,
                  const std::vector<std::string> &Corpus,
                  const std::vector<std::string> *Expected, bool WantRecords)
      : Opts(Opts), Corpus(Corpus), Expected(Expected),
        WantRecords(WantRecords), Total(std::max(1u, Opts.Requests)),
        Window(std::max(1u, Opts.Pipeline)),
        IntervalNs(Opts.Qps > 0 ? 1e9 / Opts.Qps : 0) {}

  bool run(std::string &Err, WorkerResult &Out, double &WallSeconds);

private:
  struct Outstanding {
    unsigned ConnIdx;
    unsigned CorpusIdx;
    int64_t ScheduledNs;
    int64_t SendNs;
  };
  struct EngineConn {
    std::unique_ptr<net::Connection> Conn;
    unsigned InFlight = 0;
    bool Dead = false;
  };

  void pump();
  void onFrame(unsigned ConnIdx, FrameDecoder::Frame &F);
  void onClose(unsigned ConnIdx);
  void armWatchdog();

  const LoadGenOptions &Opts;
  const std::vector<std::string> &Corpus;
  const std::vector<std::string> *Expected; ///< offline bytes (--verify)
  bool WantRecords;
  const unsigned Total, Window;
  const double IntervalNs;

  net::EventLoop Loop;
  std::vector<EngineConn> Conns;
  std::unordered_map<uint32_t, Outstanding> InFlight;
  WorkerResult R;
  unsigned NextK = 0;     ///< next request index to send
  unsigned Cursor = 0;    ///< round-robin connection cursor
  unsigned Alive = 0;     ///< connections not yet dead
  uint64_t Answered = 0;
  uint64_t WatchdogMark = ~0ull; ///< Answered at the last watchdog tick
  bool PaceArmed = false;
  int64_t StartNs = 0;

  /// No progress for this long = the run is wedged; abort instead of
  /// hanging the harness.
  static constexpr int64_t WatchdogNs = 30'000'000'000;
};

bool PipelinedEngine::run(std::string &Err, WorkerResult &Out,
                          double &WallSeconds) {
  raiseFdLimit(); // the client side needs one fd per connection too
  if (!Loop.init(Err))
    return false;
  unsigned NConn = Opts.Connections;
  Conns.resize(NConn);
  for (unsigned I = 0; I < NConn; ++I) {
    Socket S;
    std::string CErr;
    // A connect burst can outrun the server's accept loop (listen backlog
    // overflow reports ECONNREFUSED/EAGAIN on unix sockets); retry with a
    // small delay rather than failing the whole run.
    for (unsigned Attempt = 0;; ++Attempt) {
      S = Opts.UnixPath.empty()
              ? Socket::connectTcp(Opts.Host, Opts.Port, CErr)
              : Socket::connectUnix(Opts.UnixPath, CErr);
      if (S.valid())
        break;
      if (Attempt >= 1000) {
        Err = "connect (connection " + std::to_string(I) + "): " + CErr;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!S.setNonBlocking(true, CErr)) {
      Err = CErr;
      return false;
    }
    auto C = std::make_unique<net::Connection>(Loop, S.release(), I);
    if (!C->start(
            [this, I](FrameDecoder::Frame &F) { onFrame(I, F); },
            [this, I](const std::string &) { onClose(I); }, CErr)) {
      Err = CErr;
      return false;
    }
    Conns[I].Conn = std::move(C);
    ++Alive;
  }

  StartNs = nowNs();
  pump();
  armWatchdog();
  Loop.run();
  WallSeconds = static_cast<double>(nowNs() - StartNs) / 1e9;
  // Anything still unanswered at exit (watchdog abort) was lost in flight.
  R.Transport += InFlight.size();
  InFlight.clear();
  Out = std::move(R);
  return true;
}

void PipelinedEngine::armWatchdog() {
  Loop.addTimerAtNs(net::EventLoop::nowNs() + WatchdogNs, [this] {
    if (Answered == WatchdogMark) {
      Loop.stop(); // wedged: no response for a whole watchdog period
      return;
    }
    WatchdogMark = Answered;
    armWatchdog();
  });
}

void PipelinedEngine::pump() {
  while (NextK < Total && Alive > 0) {
    int64_t Now = nowNs();
    int64_t Sched = Now;
    if (IntervalNs > 0) {
      // Open loop: the next request launches at its global schedule slot,
      // via a loop timer when the slot is still in the future.
      Sched = StartNs + static_cast<int64_t>(IntervalNs * double(NextK));
      if (Sched > Now) {
        if (!PaceArmed) {
          PaceArmed = true;
          Loop.addTimerAtNs(Sched, [this] {
            PaceArmed = false;
            pump();
          });
        }
        return;
      }
    }
    // Round-robin to a connection with pipeline room; when every pipeline
    // is full, sending resumes from the next completion.
    unsigned Tried = 0;
    while (Tried < Conns.size() &&
           (Conns[Cursor].Dead || Conns[Cursor].InFlight >= Window)) {
      Cursor = (Cursor + 1) % Conns.size();
      ++Tried;
    }
    if (Tried == Conns.size())
      return;
    EngineConn &EC = Conns[Cursor];
    unsigned K = NextK++;
    uint32_t Id = K + 1; // globally unique across all connections
    CompileRequest Req;
    Req.Allocator = Opts.Allocator;
    Req.Regs = Opts.Regs;
    Req.Run = Opts.Run;
    Req.DeadlineMs = Opts.DeadlineMs;
    Req.NoCache = Opts.NoCache;
    Req.IRText = Corpus[K % Corpus.size()];
    std::string Payload = encodeCompileRequest(Req);
    InFlight.emplace(Id, Outstanding{Cursor, unsigned(K % Corpus.size()),
                                     Sched, Now});
    EC.InFlight++;
    R.Sent++;
    R.BytesSent += FrameHeaderBytes + Payload.size();
    EC.Conn->sendFrame(Id, FrameType::CompileRequest, Payload);
    // sendFrame may have closed the connection (backlog overflow); the
    // close callback already re-accounted its in-flight requests.
  }
  if (NextK >= Total && InFlight.empty())
    Loop.stop();
}

void PipelinedEngine::onFrame(unsigned ConnIdx, FrameDecoder::Frame &F) {
  if (!F.Err.empty()) {
    // Stream desync / version mismatch: protocol error; the connection
    // closes itself and onClose() re-accounts whatever was in flight.
    R.Protocol++;
    return;
  }
  R.BytesReceived += FrameHeaderBytes + F.Payload.size();
  auto It = InFlight.find(F.RequestId);
  if (It == InFlight.end()) {
    R.Protocol++; // response id we never sent (or answered twice)
    return;
  }
  Outstanding O = It->second;
  InFlight.erase(It);
  if (Conns[O.ConnIdx].InFlight)
    Conns[O.ConnIdx].InFlight--;
  if (O.ConnIdx != ConnIdx)
    R.Protocol++; // response surfaced on the wrong connection
  Answered++;

  CompileResponse Resp;
  std::string DErr;
  if (!decodeCompileResponse(F.Type, F.Payload, Resp, DErr)) {
    R.Protocol++;
    R.Errors++;
  } else {
    tallyResponse(Resp, R);
    if (Expected && Resp.Status == FrameType::CompileOk &&
        Resp.IRText != (*Expected)[O.CorpusIdx])
      R.VerifyBad++;
  }
  int64_t RecvNs = nowNs();
  double LatMs = static_cast<double>(RecvNs - O.ScheduledNs) / 1e6;
  R.LatenciesMs.push_back(LatMs);
  if (WantRecords)
    R.Records.push_back({F.RequestId, O.ConnIdx, O.SendNs, RecvNs,
                         frameTypeName(Resp.Status), Resp.Cached, Resp.Merged,
                         Resp.QueueUs, LatMs});
  pump();
}

void PipelinedEngine::onClose(unsigned ConnIdx) {
  EngineConn &EC = Conns[ConnIdx];
  if (EC.Dead)
    return;
  EC.Dead = true;
  EC.InFlight = 0;
  --Alive;
  // Whatever this connection still had in flight is lost.
  std::vector<uint32_t> Lost;
  for (const auto &KV : InFlight)
    if (KV.second.ConnIdx == ConnIdx)
      Lost.push_back(KV.first);
  for (uint32_t Id : Lost)
    InFlight.erase(Id);
  R.Transport += Lost.size();
  if (Alive == 0) {
    Loop.stop();
    return;
  }
  pump();
  if (NextK >= Total && InFlight.empty())
    Loop.stop();
}

} // namespace

bool lsra::server::runLoadGen(const LoadGenOptions &Opts, LoadGenReport &Out,
                              std::string &Err) {
  std::vector<std::string> Corpus;
  if (!buildCorpus(Opts, Corpus, Err))
    return false;

  // Open the per-request record sink up front so an unwritable path is a
  // setup failure, not a surprise after the whole run.
  std::ofstream RecordOS;
  if (!Opts.RecordOut.empty()) {
    RecordOS.open(Opts.RecordOut);
    if (!RecordOS) {
      Err = "cannot open record file '" + Opts.RecordOut + "'";
      return false;
    }
  }

  // Probe the server once before spawning the fleet.
  {
    Client Probe = Opts.UnixPath.empty()
                       ? Client::connectTcp(Opts.Host, Opts.Port, Err)
                       : Client::connectUnix(Opts.UnixPath, Err);
    if (!Probe.valid() || !Probe.ping(Err, 5000))
      return false;
  }

  if (Opts.Connections > 0) {
    // --verify: the ground truth is the same pipeline the server runs,
    // compiled in-process with the same request knobs.
    std::vector<std::string> Expected;
    if (Opts.Verify) {
      AllocatorKind Kind;
      if (!parseAllocatorName(Opts.Allocator, Kind)) {
        Err = "unknown allocator '" + Opts.Allocator + "'";
        return false;
      }
      TargetDesc TD = TargetDesc::alphaLike();
      if (Opts.Regs)
        TD = TD.withRegLimit(Opts.Regs, Opts.Regs);
      AllocOptions AO;
      ExecOptions EO;
      for (const std::string &Text : Corpus) {
        TextCompileResult TC =
            compileTextModule(Text, TD, Kind, AO, EO, Opts.Run);
        if (!TC.Ok) {
          Err = "verify: offline compile failed: " + TC.Error;
          return false;
        }
        Expected.push_back(TC.AllocatedText);
      }
    }
    PipelinedEngine Engine(Opts, Corpus, Opts.Verify ? &Expected : nullptr,
                           RecordOS.is_open());
    std::vector<WorkerResult> Results(1);
    double Wall = 0;
    if (!Engine.run(Err, Results[0], Wall))
      return false;
    finalizeReport(Results, RecordOS, Wall, Out);
    return true;
  }

  unsigned Threads = std::max(1u, Opts.Concurrency);
  unsigned Total = std::max(1u, Opts.Requests);

  std::atomic<unsigned> NextReq{0};
  std::vector<WorkerResult> Results(Threads);
  std::vector<std::thread> Fleet;
  int64_t StartNs = nowNs();
  double IntervalNs = Opts.Qps > 0 ? 1e9 / Opts.Qps : 0;

  for (unsigned T = 0; T < Threads; ++T)
    Fleet.emplace_back([&, T] {
      WorkerResult &R = Results[T];
      std::string CErr;
      Client C = Opts.UnixPath.empty()
                     ? Client::connectTcp(Opts.Host, Opts.Port, CErr)
                     : Client::connectUnix(Opts.UnixPath, CErr);
      if (!C.valid()) {
        R.Transport++;
        return;
      }
      while (true) {
        unsigned K = NextReq.fetch_add(1, std::memory_order_relaxed);
        if (K >= Total)
          break;
        // Open loop: wait for this request's scheduled slot, then charge
        // latency from the slot, not from the actual send.
        int64_t ScheduledNs = StartNs;
        if (IntervalNs > 0) {
          ScheduledNs =
              StartNs + static_cast<int64_t>(IntervalNs * double(K));
          int64_t Wait = ScheduledNs - nowNs();
          if (Wait > 0)
            std::this_thread::sleep_for(std::chrono::nanoseconds(Wait));
        } else {
          ScheduledNs = nowNs();
        }

        CompileRequest Req;
        Req.Allocator = Opts.Allocator;
            Req.Regs = Opts.Regs;
        Req.Run = Opts.Run;
        Req.DeadlineMs = Opts.DeadlineMs;
        Req.NoCache = Opts.NoCache;
        Req.IRText = Corpus[K % Corpus.size()];
        CompileResponse Resp;
        // Re-seed the id before every request (not just once at connect)
        // so the Conn-disjoint numbering survives reconnects.
        uint32_t MyId = requestIdBase(T) + static_cast<uint32_t>(R.Sent);
        C.setNextId(MyId);
        R.Sent++;
        int64_t SendNs = nowNs();
        if (!C.compile(Req, Resp, CErr)) {
          R.Transport++;
          // Transport loss kills this connection; reconnect for the rest.
          C = Opts.UnixPath.empty()
                  ? Client::connectTcp(Opts.Host, Opts.Port, CErr)
                  : Client::connectUnix(Opts.UnixPath, CErr);
          if (!C.valid())
            break;
          continue;
        }
        int64_t RecvNs = nowNs();
        double LatMs = static_cast<double>(RecvNs - ScheduledNs) / 1e6;
        R.LatenciesMs.push_back(LatMs);
        if (RecordOS.is_open())
          R.Records.push_back({MyId, T, SendNs, RecvNs,
                               frameTypeName(Resp.Status), Resp.Cached,
                               Resp.Merged, Resp.QueueUs, LatMs});
        tallyResponse(Resp, R);
      }
      R.BytesSent = C.bytesSent();
      R.BytesReceived = C.bytesReceived();
    });

  for (std::thread &T : Fleet)
    T.join();
  double Wall = static_cast<double>(nowNs() - StartNs) / 1e9;
  finalizeReport(Results, RecordOS, Wall, Out);
  return true;
}

std::string lsra::server::loadGenReportJson(const LoadGenOptions &Opts,
                                            const LoadGenReport &R) {
  std::string Workloads;
  for (const std::string &W : Opts.Workloads) {
    if (!Workloads.empty())
      Workloads += ",";
    Workloads += W;
  }
  obs::JsonObject O;
  O.field("kind", "loadgen");
  O.field("workloads", Workloads);
  O.field("allocator", Opts.Allocator);
  O.field("concurrency", Opts.Concurrency);
  O.field("connections", Opts.Connections);
  O.field("pipeline", Opts.Connections ? Opts.Pipeline : 0);
  O.field("requests", Opts.Requests);
  O.field("unique_programs", Opts.UniquePrograms);
  O.field("no_cache", Opts.NoCache ? 1 : 0);
  O.field("cached_responses", R.CachedResponses);
  O.field("merged_responses", R.MergedResponses);
  O.field("qps", Opts.Qps);
  O.field("deadline_ms", Opts.DeadlineMs);
  O.field("sent", R.Sent);
  O.field("ok", R.Ok);
  O.field("rejected", R.Rejected);
  O.field("deadline_exceeded", R.DeadlineExceeded);
  O.field("errors", R.Errors);
  O.field("transport_errors", R.TransportErrors);
  O.field("protocol_errors", R.ProtocolErrors);
  O.field("verify_mismatches", R.VerifyMismatches);
  O.field("wall_s", R.WallSeconds);
  O.field("throughput_rps", R.Throughput);
  O.field("latency_mean_ms", R.MeanMs);
  O.field("latency_p50_ms", R.P50Ms);
  O.field("latency_p95_ms", R.P95Ms);
  O.field("latency_p99_ms", R.P99Ms);
  O.field("latency_max_ms", R.MaxMs);
  O.field("bytes_sent", R.BytesSent);
  O.field("bytes_received", R.BytesReceived);
  return O.str();
}
