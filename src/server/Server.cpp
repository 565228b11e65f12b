//===- server/Server.cpp --------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "cache/SharedCache.h"
#include "driver/Pipeline.h"
#include "obs/Counters.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Hash.h"
#include "support/MemStats.h"
#include "support/ParallelFor.h"
#include "support/Timer.h"

#include <future>
#include <sys/epoll.h>

using namespace lsra;
using namespace lsra::server;

namespace {

void bumpCounter(const char *Name, uint64_t N = 1) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled())
    CR.counter(Name).add(N);
}

void histRecord(const char *Name, uint64_t V) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled())
    CR.histogram(Name).record(V);
}

void gaugeAdd(const char *Name, int64_t D) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  if (CR.enabled())
    CR.gauge(Name).add(D);
}

uint64_t clampedUs(int64_t Ns) {
  return Ns > 0 ? static_cast<uint64_t>(Ns / 1000) : 0;
}

} // namespace

Server::Server(const ServerOptions &O)
    : Opts(O), Queue(O.QueueCapacity ? O.QueueCapacity : 1) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string &Err) {
  if (Running.load(std::memory_order_acquire)) {
    Err = "server already running";
    return false;
  }
  Stopping.store(false, std::memory_order_release);
  // The telemetry plane is always on while serving: a StatsRequest must be
  // answerable at any moment, so the registry is enabled up front rather
  // than only when a --stats-json sink was requested.
  obs::CounterRegistry::global().enable();
  raiseFdLimit();
  L = Opts.UnixPath.empty() ? Listener::listenTcp(Opts.TcpPort, Err)
                            : Listener::listenUnix(Opts.UnixPath, Err);
  if (!L.valid())
    return false;
  if (!L.setNonBlocking(Err)) {
    L.close();
    return false;
  }
  if (!Opts.RequestLogPath.empty()) {
    if (!obs::RequestLog::global().open(Opts.RequestLogPath)) {
      Err = "cannot open request log '" + Opts.RequestLogPath + "'";
      L.close();
      return false;
    }
    OpenedRequestLog = true;
  }

  if (Opts.CacheBytes) {
    cache::CacheConfig CC;
    CC.MaxBytes = Opts.CacheBytes;
    Cache = std::make_unique<cache::CompileCache>(CC);
    if (!Opts.L2Path.empty()) {
      cache::SharedCacheConfig SC;
      SC.Path = Opts.L2Path;
      SC.MaxBytes = Opts.L2Bytes;
      L2 = cache::SharedCache::open(SC, Err);
      if (!L2) {
        // A misconfigured L2 should be loud, not a silent cold cache.
        Cache.reset();
        L.close();
        if (OpenedRequestLog) {
          obs::RequestLog::global().close();
          OpenedRequestLog = false;
        }
        return false;
      }
      Cache->attachL2(L2.get());
    }
  }

  bool LoopReady =
      Loop.init(Err) &&
      // The listener is just another fd on the loop; its handler accepts
      // until the backlog is empty (level-triggered, so a burst left over
      // re-fires).
      Loop.add(L.fd(), EPOLLIN, [this](uint32_t) { onAcceptable(); }, Err);
  if (!LoopReady) {
    L.close();
    if (OpenedRequestLog) {
      obs::RequestLog::global().close();
      OpenedRequestLog = false;
    }
    return false;
  }
  Loop.setAfterPoll([this] { afterPoll(); });

  unsigned NumWorkers = Opts.Workers ? Opts.Workers : defaultThreadCount();
  // Each worker blocks on the admission queue and exits when the queue is
  // closed and empty (graceful drain). compileEntry catches what the
  // compile throws; anything else escaping a task ends the process.
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] {
      std::function<void()> Task;
      while (Queue.pop(Task))
        Task();
    });

  Running.store(true, std::memory_order_release);
  LoopThread = std::thread([this] { Loop.run(); });
  LSRA_LOG(1, "server: listening on %s (workers=%u, queue=%u, event loop)",
           Opts.UnixPath.empty()
               ? ("tcp 127.0.0.1:" + std::to_string(L.port())).c_str()
               : Opts.UnixPath.c_str(),
           NumWorkers, Queue.capacity());
  return true;
}

//===----------------------------------------------------------------------===//
// Loop-thread side: accept, decode, admit
//===----------------------------------------------------------------------===//

void Server::onAcceptable() {
  while (true) {
    Socket S = L.acceptNow();
    if (!S.valid())
      return;
    bumpCounter("server.connections");
    uint64_t Id = NextConnId++;
    auto C = std::make_unique<net::Connection>(Loop, S.release(), Id);
    C->onStampedSent(
        [this](int64_t FirstByteNs) { recordLatency(FirstByteNs); });
    std::string Err;
    bool Started = C->start(
        [this, Id](FrameDecoder::Frame &F) { onFrame(Id, F); },
        [this, Id](const std::string &) { onConnClosed(Id); }, Err);
    if (!Started) {
      LSRA_LOG(2, "server: cannot watch connection: %s", Err.c_str());
      continue; // Connection destructor closes the fd
    }
    gaugeAdd("server.open_connections", 1);
    Conns.emplace(Id, std::move(C));
  }
}

void Server::onConnClosed(uint64_t ConnId) {
  gaugeAdd("server.open_connections", -1);
  // The Connection is still on the stack inside its own close(); defer the
  // erase to the next posted-task drain.
  Loop.post([this, ConnId] { Conns.erase(ConnId); });
}

void Server::onFrame(uint64_t ConnId, FrameDecoder::Frame &F) {
  if (!F.Err.empty()) {
    // Decoder error: the stream is desynchronized. A version mismatch
    // still yields the request id, so the client learns why before the
    // close; any other header damage just drops the connection (the
    // Connection closes itself after this callback).
    if (F.VersionMismatch) {
      bumpCounter("server.version_mismatch");
      CompileResponse R;
      R.Status = FrameType::Error;
      R.Message = F.Err;
      sendToConn(ConnId, F.RequestId, R.Status, encodeCompileResponse(R));
      auto It = Conns.find(ConnId);
      if (It != Conns.end())
        It->second->closeAfterFlush(F.Err);
    }
    LSRA_LOG(2, "server: dropping connection: %s", F.Err.c_str());
    return;
  }
  bumpCounter("server.bytes_in", FrameHeaderBytes + F.Payload.size());
  switch (F.Type) {
  case FrameType::Ping:
    sendToConn(ConnId, F.RequestId, FrameType::Pong, "");
    return;
  case FrameType::StatsRequest: {
    StatsRequest SR;
    std::string SErr;
    if (!decodeStatsRequest(F.Payload, SR, SErr)) {
      CompileResponse R;
      R.Status = FrameType::Error;
      R.Message = "bad stats request: " + SErr;
      sendToConn(ConnId, F.RequestId, R.Status, encodeCompileResponse(R));
      return;
    }
    bumpCounter("server.stats_requests");
    sendToConn(ConnId, F.RequestId, FrameType::StatsReply,
               renderStats(SR.Format));
    return;
  }
  case FrameType::CompileRequest:
    admitCompile(ConnId, F);
    return;
  default: {
    CompileResponse R;
    R.Status = FrameType::Error;
    R.Message =
        std::string("unexpected frame type '") + frameTypeName(F.Type) + "'";
    sendToConn(ConnId, F.RequestId, R.Status, encodeCompileResponse(R));
    return;
  }
  }
}

void Server::admitCompile(uint64_t ConnId, const FrameDecoder::Frame &F) {
  uint32_t Id = F.RequestId;
  bumpCounter("server.requests");
  if (Stopping.load(std::memory_order_acquire)) {
    CompileResponse R;
    R.Status = FrameType::ShuttingDown;
    R.Message = "server is draining";
    bumpCounter("server.shutdown_rejected");
    sendToConn(ConnId, Id, R.Status, encodeCompileResponse(R));
    return;
  }

  int64_t ArrivalNs = steadyNowNs();
  std::shared_ptr<obs::RequestTrace> RT;
  if (Opts.SampleEvery && ReqSeq++ % Opts.SampleEvery == 0) {
    RT = std::make_shared<obs::RequestTrace>();
    RT->RequestId = Id;
    RT->ArrivalNs = ArrivalNs;
    RT->addPhase("recv", ArrivalNs, 0);
  }

  // Decode once, at admission: the merge key needs the request fields, and
  // a payload that cannot even be decoded should not cost a queue slot.
  CompileRequest Req;
  std::string Err;
  if (!decodeCompileRequest(F.Payload, Req, Err)) {
    CompileResponse R;
    R.Status = FrameType::Error;
    R.Message = "bad request: " + Err;
    bumpCounter("server.parse_errors");
    sendToConn(ConnId, Id, R.Status, encodeCompileResponse(R));
    return;
  }
  AllocatorKind Kind;
  if (!parseAllocatorName(Req.Allocator, Kind)) {
    CompileResponse R;
    R.Status = FrameType::Error;
    R.Message = "unknown allocator '" + Req.Allocator + "'";
    bumpCounter("server.parse_errors");
    sendToConn(ConnId, Id, R.Status, encodeCompileResponse(R));
    return;
  }

  uint32_t DeadlineMs = Req.DeadlineMs ? Req.DeadlineMs : Opts.DefaultDeadlineMs;
  auto P = std::make_shared<Pending>();
  P->ConnId = ConnId;
  P->FrameId = Id;
  P->ArrivalNs = ArrivalNs;
  P->FirstByteNs = F.FirstByteNs;
  P->DeadlineNs = DeadlineMs ? ArrivalNs + int64_t(DeadlineMs) * 1'000'000 : 0;
  P->RT = RT;

  TargetDesc TD = targetForRegLimit(Req.Regs);
  AllocOptions AO;
  AO.SpillCleanup = Req.Cleanup;

  // The merge key is the compile cache's content x options x target hash,
  // with every request field that changes the response folded in. The
  // deadline is deliberately excluded: it changes when a request is
  // abandoned, not what it computes.
  uint64_t OptionsFp = WordHash(AO.fingerprint())
                           .word((Req.Run ? 2u : 0u) + (Req.NoCache ? 1u : 0u))
                           .bytes(Req.Allocator.data(), Req.Allocator.size())
                           .value();
  cache::CacheKey Key =
      cache::makeModuleKey(Req.IRText, OptionsFp, Kind, TD.fingerprint());

  {
    std::lock_guard<std::mutex> Lock(MergeMu);
    auto It = InflightTable.find(Key);
    if (It != InflightTable.end()) {
      // Identical compile already in flight (queued or running): piggyback
      // instead of queueing a duplicate. The waiter costs no queue slot —
      // it adds no compile work.
      P->Merged = true;
      It->second->Waiters.push_back(P);
      bumpCounter("server.accepted");
      bumpCounter("server.merged");
      gaugeAdd("server.inflight", 1);
      if (RT)
        RT->addPhase("admit", ArrivalNs, steadyNowNs() - ArrivalNs);
      armDeadline(P);
      return;
    }
  }

  // Not mergeable: this request needs a queue slot of its own.
  if (Queue.depth() >= Queue.capacity()) {
    CompileResponse R;
    R.Status = FrameType::Rejected;
    R.Message = "admission queue full (capacity " +
                std::to_string(Queue.capacity()) + ")";
    bumpCounter("server.rejected");
    sendToConn(ConnId, Id, R.Status, encodeCompileResponse(R));
    return;
  }

  auto E = std::make_shared<Inflight>();
  E->Key = Key;
  E->Req = std::move(Req);
  E->Kind = Kind;
  E->TD = TD;
  E->Leader = P;
  E->LeaderRT = RT;
  E->Waiters.push_back(P);
  // Insert before the push: pushed first, a fast worker could finish and
  // erase the key before the insert lands, leaving a dead entry that
  // identical requests would join and wait on forever.
  {
    std::lock_guard<std::mutex> Lock(MergeMu);
    InflightTable.emplace(Key, E);
  }
  // All admission bookkeeping before the push, too: once pushed, a worker
  // may answer the request at once, and it reads P->TimerId and undoes the
  // in-flight gauge; the queue's lock orders these writes before its pop.
  bumpCounter("server.accepted");
  gaugeAdd("server.inflight", 1);
  if (RT)
    RT->addPhase("admit", ArrivalNs, steadyNowNs() - ArrivalNs);
  armDeadline(P);
  if (!Queue.tryPush([this, E] { compileEntry(E); })) {
    // Defensive: the loop is the only producer and capacity was just
    // checked, and shutdown closes the queue only after its
    // loop-synchronised step. No waiter can have joined (joins run here),
    // and the deadline timer cannot have fired (timers run here too).
    {
      std::lock_guard<std::mutex> Lock(MergeMu);
      InflightTable.erase(Key);
    }
    if (P->TimerId)
      Loop.cancelTimer(P->TimerId);
    gaugeAdd("server.inflight", -1);
    CompileResponse R;
    R.Status = FrameType::ShuttingDown;
    R.Message = "server is draining";
    bumpCounter("server.shutdown_rejected");
    sendToConn(ConnId, Id, R.Status, encodeCompileResponse(R));
  }
}

void Server::armDeadline(const PendingPtr &P) {
  if (!P->DeadlineNs)
    return;
  P->TimerId = Loop.addTimerAtNs(P->DeadlineNs, [this, P] { onDeadline(P); });
}

void Server::onDeadline(const PendingPtr &P) {
  if (P->Answered.exchange(true, std::memory_order_acq_rel))
    return; // the worker's fan-out won; this timer is stale
  int64_t Now = steadyNowNs();
  uint64_t WaitedUs = clampedUs(Now - P->ArrivalNs);
  bumpCounter("server.deadline_exceeded");
  histRecord("server.queue_wait_us", WaitedUs);
  CompileResponse R;
  R.Status = FrameType::DeadlineExceeded;
  R.Message = "deadline exceeded before dispatch";
  R.QueueUs = WaitedUs;
  R.Merged = P->Merged;
  if (P->RT) {
    P->RT->addPhase("queue-wait", P->ArrivalNs, Now - P->ArrivalNs);
    P->RT->addPhase("reply", Now, 0);
  }
  finishRequest(P, "deadline", /*Cached=*/false, WaitedUs, Now);
  sendToConn(P->ConnId, P->FrameId, R.Status, encodeCompileResponse(R),
             P->FirstByteNs);
  // The request stays in its Inflight entry; the worker sees Answered and
  // skips it (and skips the whole compile when every waiter expired).
}

void Server::afterPoll() {
  if (!DrainFinal)
    return;
  if (Conns.empty()) {
    Loop.stop();
    return;
  }
  if (steadyNowNs() > DrainDeadlineNs) {
    // A peer that stopped reading cannot hold shutdown hostage: cut the
    // stragglers and let their queued bytes go.
    for (auto &KV : Conns)
      KV.second->close("drain flush timeout");
    Loop.stop();
  }
}

void Server::sendToConn(uint64_t ConnId, uint32_t Id, FrameType Type,
                        const std::string &Payload, int64_t FirstByteNs) {
  // Counted before the write so the total is never behind what a client
  // has already observed on the wire.
  Served.fetch_add(1, std::memory_order_relaxed);
  auto It = Conns.find(ConnId);
  if (It == Conns.end() || It->second->closed()) {
    // Client went away (the mid-merge-disconnect case); nothing to do but
    // count it.
    bumpCounter("server.send_errors");
    if (FirstByteNs)
      recordLatency(FirstByteNs);
    return;
  }
  It->second->sendFrame(Id, Type, Payload, FirstByteNs);
  bumpCounter("server.bytes_out", FrameHeaderBytes + Payload.size());
}

//===----------------------------------------------------------------------===//
// Worker side: compile once, fan out to every waiter
//===----------------------------------------------------------------------===//

void Server::compileEntry(const InflightPtr &E) {
  int64_t TaskStartNs = steadyNowNs();
  {
    // Every waiter already answered (deadlines fired while queued): the
    // compile would be pure waste, skip it and retire the entry.
    std::lock_guard<std::mutex> Lock(MergeMu);
    bool AnyAlive = false;
    for (const PendingPtr &W : E->Waiters)
      if (!W->Answered.load(std::memory_order_acquire)) {
        AnyAlive = true;
        break;
      }
    if (!AnyAlive) {
      InflightTable.erase(E->Key);
      return;
    }
  }

  obs::ScopedSpan Span("serve:request", "request");
  if (E->LeaderRT && E->Leader)
    E->LeaderRT->addPhase("queue-wait", E->Leader->ArrivalNs,
                          TaskStartNs - E->Leader->ArrivalNs);
  if (Opts.BeforeCompile)
    Opts.BeforeCompile(E->Req);

  ExecOptions EO;
  EO.VerifyAlloc = Opts.VerifyAlloc;
  EO.Cache = E->Req.NoCache ? nullptr : Cache.get();
  EO.ReqTrace = E->LeaderRT.get();
  AllocOptions AO;
  AO.SpillCleanup = E->Req.Cleanup;

  TextCompileResult TC;
  int64_t CompileStartNs = steadyNowNs();
  try {
    TC = compileTextModule(E->Req.IRText, E->TD, E->Kind, AO, EO, E->Req.Run);
  } catch (const std::exception &Ex) {
    TC.Ok = false;
    TC.Error = std::string("internal error: ") + Ex.what();
  } catch (...) {
    TC.Ok = false;
    TC.Error = "internal error";
  }
  int64_t CompileNs = steadyNowNs() - CompileStartNs;
  histRecord("server.compile_us", CompileNs > 0 ? CompileNs / 1000 : 0);

  // Close the entry: joins from here on start a fresh compile (usually a
  // cache hit). Snapshot the waiters under the same lock so a join racing
  // the erase lands wholly in this fan-out or wholly in a new entry.
  std::vector<PendingPtr> Waiters;
  {
    std::lock_guard<std::mutex> Lock(MergeMu);
    Waiters = std::move(E->Waiters);
    InflightTable.erase(E->Key);
  }

  // A run=1 request whose run fails (out of budget, a VM trap) is answered
  // with the VM's message, never as a CompileOk without run fields.
  if (TC.Ran && !TC.Run.Ok) {
    TC.Ok = false;
    TC.Error = "run: " + TC.Run.Error;
  }
  CompileResponse Base;
  const char *CounterName;
  const char *LogStatus;
  if (!TC.Ok) {
    Base.Status = FrameType::Error;
    Base.Message = TC.Error;
    Base.ErrLine = TC.ErrLine;
    Base.ErrCol = TC.ErrCol;
    Base.ErrToken = TC.ErrToken;
    // Verifier rejections are a distinct failure class from client-side
    // parse mistakes: they mean the *allocator* produced code the
    // validator could not prove correct.
    CounterName = TC.Error.rfind("allocation verify:", 0) == 0
                      ? "server.verify_rejects"
                  : TC.Ran ? "server.run_errors"
                           : "server.parse_errors";
    LogStatus = "error";
  } else {
    Base.Status = FrameType::CompileOk;
    Base.Allocator = E->Req.Allocator;
    Base.Candidates = TC.Stats.RegCandidates;
    Base.Spilled = TC.Stats.SpilledTemps;
    Base.StaticSpills = TC.Stats.staticSpillInstrs();
    Base.Coalesced = TC.Stats.MovesCoalesced;
    Base.Splits = TC.Stats.LifetimeSplits;
    Base.AllocSeconds = TC.Stats.AllocSeconds;
    Base.Cached = TC.CacheHit;
    if (TC.CacheHit)
      bumpCounter("server.cache_hits");
    if (TC.Ran) {
      Base.HasRun = true;
      Base.DynInstrs = TC.Run.Stats.Total;
      Base.Cycles = TC.Run.Stats.Cycles;
      Base.DynSpills = TC.Run.Stats.spillInstrs();
      Base.ReturnValue = TC.Run.ReturnValue;
    }
    Base.IRText = std::move(TC.AllocatedText);
    CounterName = "server.completed";
    LogStatus = "ok";
  }

  bool Cached = TC.Ok && TC.CacheHit;
  for (const PendingPtr &W : Waiters) {
    if (W->Answered.exchange(true, std::memory_order_acq_rel))
      continue; // expired while we compiled; the timer answered it
    bumpCounter(CounterName);
    answerWaiter(W, Base, LogStatus, Cached, TaskStartNs);
  }
}

void Server::answerWaiter(const PendingPtr &W, CompileResponse &Resp,
                          const char *LogStatus, bool Cached,
                          int64_t TaskStartNs) {
  // Per-waiter response: identical compile payload, per-request queue wait
  // and merge marker. A merged waiter that arrived after dispatch waited
  // zero queue time by definition.
  Resp.Merged = W->Merged;
  uint64_t QueueUs = clampedUs(TaskStartNs - W->ArrivalNs);
  Resp.QueueUs = QueueUs;
  int64_t Now = steadyNowNs();
  if (W->RT) {
    if (W->Merged)
      W->RT->addPhase("merged", W->ArrivalNs,
                      Now - W->ArrivalNs > 0 ? Now - W->ArrivalNs : 0);
    W->RT->addPhase("reply", Now, 0);
  }
  histRecord("server.queue_wait_us", QueueUs);
  finishRequest(W, LogStatus, Cached, QueueUs, Now);
  std::string Payload = encodeCompileResponse(Resp);
  FrameType Type = Resp.Status;
  uint64_t ConnId = W->ConnId;
  uint32_t FrameId = W->FrameId;
  uint64_t TimerId = W->TimerId;
  int64_t FirstByteNs = W->FirstByteNs;
  Loop.post([this, ConnId, FrameId, Type, TimerId, FirstByteNs,
             Payload = std::move(Payload)] {
    if (TimerId)
      Loop.cancelTimer(TimerId);
    sendToConn(ConnId, FrameId, Type, Payload, FirstByteNs);
  });
}

void Server::finishRequest(const PendingPtr &W, const char *Status,
                           bool Cached, uint64_t QueueUs, int64_t AnsweredNs) {
  int64_t TotalNs = AnsweredNs - W->ArrivalNs;
  gaugeAdd("server.inflight", -1);
  if (!W->RT)
    return;
  W->RT->emitToTracer();
  obs::RequestLog::global().write(*W->RT, Status, Cached, QueueUs,
                                  clampedUs(TotalNs));
}

void Server::recordLatency(int64_t FirstByteNs) {
  histRecord("server.latency_us", clampedUs(steadyNowNs() - FirstByteNs));
}

std::string Server::renderStats(const std::string &Format) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  // Pull-updated gauges: refreshed at scrape time, not on a timer.
  CR.gauge("proc.rss_bytes").set(static_cast<int64_t>(currentRssBytes()));
  if (Cache)
    cache::refreshCacheGauges(*Cache);
  obs::MetricsSnapshot S = CR.metricsSnapshot();
  if (Format == "prom")
    return S.toPrometheus();
  if (Format == "text")
    return S.toText();
  return S.toJson();
}

void Server::shutdown() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  // 1. Refuse new requests; stop accepting. Synchronized through the loop
  // so no admission races the queue close: one that read Stopping before
  // it flipped has pushed by the time this task runs.
  Stopping.store(true, std::memory_order_release);
  {
    std::promise<void> Done;
    std::future<void> F = Done.get_future();
    Loop.post([this, &Done] {
      Loop.del(L.fd());
      Done.set_value();
    });
    F.wait();
  }
  // 2. Drain: answer everything already admitted, then retire workers.
  Queue.close();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  // 3. Workers are done, so every response is either on the wire or in the
  // loop's posted queue (FIFO: posted before this sentinel, runs before
  // it). Flush each connection's write queue, then stop the loop; a peer
  // that won't read gets cut at the drain deadline in afterPoll().
  Loop.post([this] {
    DrainFinal = true;
    DrainDeadlineNs = steadyNowNs() + DrainFlushTimeoutNs;
    if (Conns.empty()) {
      Loop.stop();
      return;
    }
    for (auto &KV : Conns)
      KV.second->closeAfterFlush("server drained");
  });
  if (LoopThread.joinable())
    LoopThread.join();
  Conns.clear();
  {
    std::lock_guard<std::mutex> Lock(MergeMu);
    InflightTable.clear();
  }
  L.close();
  if (OpenedRequestLog) {
    obs::RequestLog::global().close();
    OpenedRequestLog = false;
  }
  // The caches are final now: set their gauges for an exit snapshot.
  if (Cache)
    cache::refreshCacheGauges(*Cache);
  LSRA_LOG(1, "server: drained, %llu responses served",
           static_cast<unsigned long long>(Served.load()));
}
