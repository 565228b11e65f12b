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
#include "obs/Trace.h"
#include "regalloc/Allocator.h"
#include "server/Client.h"
#include "server/Socket.h"
#include "support/Timer.h"
#include "target/Target.h"
#include "workloads/RandomProgram.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <fstream>
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

/// --verify: the ground truth is the same pipeline the server runs,
/// compiled in-process with the same request knobs.
bool compileExpected(const LoadGenOptions &Opts,
                     const std::vector<std::string> &Corpus,
                     std::vector<std::string> &Expected, std::string &Err) {
  AllocatorKind Kind;
  if (!parseAllocatorName(Opts.Allocator, Kind)) {
    Err = "unknown allocator '" + Opts.Allocator + "'";
    return false;
  }
  TargetDesc TD = targetForRegLimit(Opts.Regs);
  for (const std::string &Text : Corpus) {
    TextCompileResult TC =
        compileTextModule(Text, TD, Kind, AllocOptions(), ExecOptions(),
                          Opts.Run);
    if (!TC.Ok) {
      Err = "verify: offline compile failed: " + TC.Error;
      return false;
    }
    Expected.push_back(TC.AllocatedText);
  }
  return true;
}

void tallyResponse(const CompileResponse &Resp, LoadGenReport &R) {
  switch (Resp.Status) {
  case FrameType::CompileOk:
    R.Ok++;
    if (Resp.Cached)
      R.CachedResponses++;
    break;
  case FrameType::Rejected:
    R.Rejected++;
    break;
  case FrameType::DeadlineExceeded:
    R.DeadlineExceeded++;
    break;
  default:
    R.Errors++;
    break;
  }
  if (Resp.Merged)
    R.MergedResponses++;
}

//===----------------------------------------------------------------------===//
// Load engine
//===----------------------------------------------------------------------===//

/// Event-driven load engine: Connections non-blocking sockets on one epoll
/// loop, up to Window requests pipelined on each, matched to responses by
/// globally-unique id. Single-threaded — the loop thread is the caller.
class LoadEngine {
public:
  LoadEngine(const LoadGenOptions &Opts, const std::vector<std::string> &Corpus,
             const std::vector<std::string> *Expected, std::ofstream &RecordOS)
      : Opts(Opts), Corpus(Corpus), Expected(Expected), RecordOS(RecordOS),
        Total(std::max(1u, Opts.Requests)), Window(std::max(1u, Opts.Pipeline)),
        IntervalNs(Opts.Qps > 0 ? 1e9 / Opts.Qps : 0) {}

  /// Drive the whole run, then write --record-out (when open) and the
  /// report.
  bool run(std::string &Err, LoadGenReport &Out);

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
  void finish(double WallSeconds);

  const LoadGenOptions &Opts;
  const std::vector<std::string> &Corpus;
  const std::vector<std::string> *Expected; ///< offline bytes (--verify)
  std::ofstream &RecordOS;                  ///< --record-out sink
  const unsigned Total, Window;
  const double IntervalNs;

  net::EventLoop Loop;
  std::vector<EngineConn> Conns;
  std::unordered_map<uint32_t, Outstanding> InFlight;
  LoadGenReport R;
  std::vector<double> LatenciesMs;
  std::vector<RequestRecord> Records;
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

bool LoadEngine::run(std::string &Err, LoadGenReport &Out) {
  raiseFdLimit(); // the client side needs one fd per connection too
  if (!Loop.init(Err))
    return false;
  unsigned NConn = std::max(1u, Opts.Connections);
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

  StartNs = steadyNowNs();
  pump();
  armWatchdog();
  Loop.run();
  double WallSeconds = static_cast<double>(steadyNowNs() - StartNs) / 1e9;
  // Anything still unanswered at exit (watchdog abort) was lost in flight.
  R.TransportErrors += InFlight.size();
  InFlight.clear();
  finish(WallSeconds);
  Out = R;
  return true;
}

/// Write --record-out and fill in the wall time, throughput and latency
/// summary.
void LoadEngine::finish(double WallSeconds) {
  if (RecordOS.is_open()) {
    for (const RequestRecord &Rec : Records) {
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
  R.WallSeconds = WallSeconds;
  R.Throughput = WallSeconds > 0
                       ? static_cast<double>(LatenciesMs.size()) / WallSeconds
                       : 0;
  if (!LatenciesMs.empty()) {
    double Sum = 0, Max = 0;
    for (double L : LatenciesMs) {
      Sum += L;
      Max = std::max(Max, L);
    }
    R.MeanMs = Sum / static_cast<double>(LatenciesMs.size());
    R.MaxMs = Max;
    R.P50Ms = latencyPercentile(LatenciesMs, 50);
    R.P95Ms = latencyPercentile(LatenciesMs, 95);
    R.P99Ms = latencyPercentile(LatenciesMs, 99);
  }
}

void LoadEngine::armWatchdog() {
  Loop.addTimerAtNs(steadyNowNs() + WatchdogNs, [this] {
    if (Answered == WatchdogMark) {
      Loop.stop(); // wedged: no response for a whole watchdog period
      return;
    }
    WatchdogMark = Answered;
    armWatchdog();
  });
}

void LoadEngine::pump() {
  while (NextK < Total && Alive > 0) {
    int64_t Now = steadyNowNs();
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

void LoadEngine::onFrame(unsigned ConnIdx, FrameDecoder::Frame &F) {
  if (!F.Err.empty()) {
    // Stream desync / version mismatch: protocol error; the connection
    // closes itself and onClose() re-accounts whatever was in flight.
    R.ProtocolErrors++;
    return;
  }
  R.BytesReceived += FrameHeaderBytes + F.Payload.size();
  auto It = InFlight.find(F.RequestId);
  if (It == InFlight.end()) {
    R.ProtocolErrors++; // response id we never sent (or answered twice)
    return;
  }
  Outstanding O = It->second;
  InFlight.erase(It);
  if (Conns[O.ConnIdx].InFlight)
    Conns[O.ConnIdx].InFlight--;
  if (O.ConnIdx != ConnIdx)
    R.ProtocolErrors++; // response surfaced on the wrong connection
  Answered++;

  CompileResponse Resp;
  std::string DErr;
  if (!decodeCompileResponse(F.Type, F.Payload, Resp, DErr)) {
    R.ProtocolErrors++;
    R.Errors++;
  } else {
    tallyResponse(Resp, R);
    if (Expected && Resp.Status == FrameType::CompileOk &&
        Resp.IRText != (*Expected)[O.CorpusIdx])
      R.VerifyMismatches++;
  }
  int64_t RecvNs = steadyNowNs();
  double LatMs = static_cast<double>(RecvNs - O.ScheduledNs) / 1e6;
  LatenciesMs.push_back(LatMs);
  if (RecordOS.is_open())
    Records.push_back({F.RequestId, O.ConnIdx, O.SendNs, RecvNs,
                       frameTypeName(Resp.Status), Resp.Cached, Resp.Merged,
                       Resp.QueueUs, LatMs});
  pump();
}

void LoadEngine::onClose(unsigned ConnIdx) {
  EngineConn &EC = Conns[ConnIdx];
  if (EC.Dead)
    return;
  EC.Dead = true;
  EC.InFlight = 0;
  --Alive;
  // Whatever this connection still had in flight is lost; the connection
  // is not reopened.
  std::vector<uint32_t> Lost;
  for (const auto &KV : InFlight)
    if (KV.second.ConnIdx == ConnIdx)
      Lost.push_back(KV.first);
  for (uint32_t Id : Lost)
    InFlight.erase(Id);
  R.TransportErrors += Lost.size();
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

  // Probe the server once before opening the connections.
  {
    Client Probe = Opts.UnixPath.empty()
                       ? Client::connectTcp(Opts.Host, Opts.Port, Err)
                       : Client::connectUnix(Opts.UnixPath, Err);
    if (!Probe.valid() || !Probe.ping(Err, 5000))
      return false;
  }

  std::vector<std::string> Expected;
  if (Opts.Verify && !compileExpected(Opts, Corpus, Expected, Err))
    return false;
  LoadEngine Engine(Opts, Corpus, Opts.Verify ? &Expected : nullptr,
                    RecordOS);
  return Engine.run(Err, Out);
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
  O.field("connections", Opts.Connections);
  O.field("pipeline", Opts.Pipeline);
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
