//===- server/Server.h - Event-driven compile server -----------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation-as-a-service: a socket server that compiles textual-IR
/// modules through the standard pipeline (driver/Pipeline.h) and returns
/// the allocated module plus statistics. The paper's compile-time focus
/// (Table 3) is what makes this viable — linear-scan allocation is fast
/// enough to sit on a request path, which is precisely the contrast the
/// combinatorial-allocation literature draws against solver-based
/// allocators.
///
/// Threading model (event-driven, since the epoll rewrite):
///   - ONE loop thread (net/EventLoop) owns the listener and every
///     connection: accepts, incremental frame decode, admission control,
///     deadline timers, and all socket writes. Workers never touch an fd;
///     they post completion closures back to the loop. One thread
///     multiplexing every socket is what lifts the connection ceiling
///     from "a few hundred reader threads" to tens of thousands of
///     non-blocking fds;
///   - a fixed set of compile worker threads draining the bounded
///     server/RequestQueue, the one hand-off between the loop and the
///     workers: each admitted compile is pushed as its own task the moment
///     it is admitted (compiles are where the cores go).
///
/// Connections are pipelined: a client may keep any number of requests in
/// flight; responses are written in completion order behind a
/// per-connection write queue and matched by request id.
///
/// Identical in-flight requests merge: admission keys every compile by the
/// cache's 128-bit content x options x target hash, and a request whose
/// key is already in flight joins that entry as a waiter instead of
/// queueing a duplicate compile. The one compile fans its reply out to
/// every waiter (byte-identical payloads; per-waiter queue_us and a
/// merged=1 marker). A waiter whose connection dies mid-merge is simply
/// skipped at fan-out — the compile and the other waiters are unaffected.
///
/// Overload and lifecycle policy, in order of evaluation per request:
///   - drain in progress        → ShuttingDown frame, no admission;
///   - payload fails to decode / unknown allocator → Error frame at
///                                admission (nothing is queued);
///   - admission queue full     → Rejected frame (load shed, 503-style);
///   - deadline expires while queued or merged → DeadlineExceeded frame
///                                from the loop's timer wheel (the compile
///                                is skipped when every waiter expired);
///   - parse/verify failure in the worker → Error frame with the parser's
///                                line/column/token diagnostics;
///   - otherwise                → CompileOk with allocated IR + stats.
///
/// Telemetry is always on: start() enables the counter registry, so the
/// server.* counters (accepted, completed, rejected, deadline_exceeded,
/// parse_errors, merged, bytes_in, bytes_out, ...), the rolling-window
/// histograms (server.latency_us, server.queue_wait_us, server.compile_us,
/// server.queue_depth.dist) and the gauges (server.queue_depth,
/// server.inflight, server.open_connections, proc.rss_bytes, cache.bytes)
/// are live for the whole serve. Any connected client can fetch them
/// mid-load with a StatsRequest frame (`lsra stats` / `lsra top`), and
/// `lsra serve --stats-json` writes the same document at exit.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_SERVER_H
#define LSRA_SERVER_SERVER_H

#include "cache/CompileCache.h"
#include "net/Connection.h"
#include "net/EventLoop.h"
#include "regalloc/Allocator.h"
#include "server/RequestQueue.h"
#include "server/Socket.h"
#include "target/Target.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lsra {

namespace obs {
struct RequestTrace;
} // namespace obs

namespace server {

struct ServerOptions {
  /// Unix-domain socket path; when empty, a loopback TCP listener on
  /// TcpPort is used instead.
  std::string UnixPath;
  uint16_t TcpPort = 0; ///< 0 = ephemeral (read back via Server::port())

  unsigned Workers = 0;       ///< compile workers (0 = hardware threads)
  unsigned QueueCapacity = 64; ///< admission bound, in requests (shed above)

  /// Deadline applied to requests that carry none (0 = unlimited).
  uint32_t DefaultDeadlineMs = 0;

  /// Run the allocation verifier (check/Verifier) on every compile and
  /// reject unprovable allocations with a typed "allocation verify:" error
  /// response instead of returning wrong code.
  bool VerifyAlloc = false;

  /// Budget of the server's content-addressed compile cache, in bytes
  /// (0 = caching off). Requests can opt out individually with the wire
  /// field no_cache=1.
  size_t CacheBytes = 64u << 20;

  /// Shared-memory L2 cache segment shared with other server processes
  /// (empty = no L2). Requires CacheBytes > 0: the L2 fills through L1.
  std::string L2Path;
  size_t L2Bytes = 256u << 20; ///< segment budget when creating L2Path

  /// Request-trace sampling: every Nth admitted compile request gets an
  /// obs::RequestTrace (0 = tracing off, 1 = every request). The loop adds
  /// recv, admit, queue-wait and reply; the compile pipeline's spans add
  /// cache-probe, l2-probe, parse, alloc (lowerCalls, then allocateModule
  /// with each function's dce inside it) and emit under their span names. Merged waiters get
  /// recv→admit→merged→reply. Sampled traces go to the Chrome tracer (when
  /// enabled) and the request log (when open).
  unsigned SampleEvery = 0;

  /// When non-empty, start() opens obs::RequestLog on this path and every
  /// sampled request appends one JSONL timing record; shutdown() closes it.
  std::string RequestLogPath;

  /// Test gate: when set, a worker calls it with the decoded request just
  /// before compiling, so a test can hold a worker busy until it releases
  /// the gate. No wire field reaches it.
  std::function<void(const CompileRequest &)> BeforeCompile;
};

class Server {
public:
  explicit Server(const ServerOptions &Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Bind, listen, and spawn the loop thread + worker threads. False (with
  /// \p Err set) if the socket cannot be bound.
  bool start(std::string &Err);

  /// Graceful drain, idempotent: stop accepting connections and requests,
  /// answer every admitted request, refuse the rest with typed frames,
  /// flush every connection's write queue, then join every thread.
  /// Blocks until the drain completes.
  void shutdown();

  bool running() const { return Running.load(std::memory_order_acquire); }

  /// Resolved TCP port (after start(), TCP mode only).
  uint16_t port() const { return L.port(); }

  /// Requests answered since start(), any status. (Monotonic; readable
  /// while serving.)
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

  /// The server's compile cache (null when Opts.CacheBytes == 0).
  cache::CompileCache *compileCache() { return Cache.get(); }

  /// The shared L2 tier (null when Opts.L2Path is empty or L1 is off).
  cache::SharedCache *sharedCache() { return L2.get(); }

private:
  /// One admitted client request: the unit merging and deadlines operate
  /// on. Answered is the once-only latch raced between the loop's
  /// deadline timer and the worker's fan-out — whoever flips it owns the
  /// response and the terminal telemetry for this request.
  struct Pending {
    uint64_t ConnId = 0;
    uint32_t FrameId = 0;
    int64_t ArrivalNs = 0;
    int64_t FirstByteNs = 0; ///< when the request frame's first byte was read
    int64_t DeadlineNs = 0;  ///< 0 = none
    /// Deadline timer. Written by the loop before the request is queued or
    /// joined; a worker reads it only after that hand-off.
    uint64_t TimerId = 0;
    bool Merged = false;    ///< joined an already-in-flight compile
    std::shared_ptr<obs::RequestTrace> RT;
    std::atomic<bool> Answered{false};
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// One in-flight compile: the leader's decoded request plus every
  /// waiter merged onto it. Lives in InflightTable (guarded by MergeMu)
  /// from admission until the worker removes it at completion, so
  /// identical requests can keep joining mid-queue and mid-compile.
  struct Inflight {
    cache::CacheKey Key;
    CompileRequest Req;
    AllocatorKind Kind{};
    TargetDesc TD;
    PendingPtr Leader; ///< the admission that created this entry
    std::shared_ptr<obs::RequestTrace> LeaderRT;
    std::vector<PendingPtr> Waiters; ///< guarded by Server::MergeMu
  };
  using InflightPtr = std::shared_ptr<Inflight>;

  // --- loop-thread handlers -------------------------------------------------
  void onAcceptable();
  void onFrame(uint64_t ConnId, FrameDecoder::Frame &F);
  void onConnClosed(uint64_t ConnId);
  void admitCompile(uint64_t ConnId, const FrameDecoder::Frame &F);
  void armDeadline(const PendingPtr &P);
  void onDeadline(const PendingPtr &P);
  void afterPoll();
  /// Write one frame to a connection by id; counts Served/bytes_out, and
  /// counts a send error if the connection is already gone. A reply to an
  /// admitted request passes its \p FirstByteNs: server.latency_us is
  /// recorded when the reply's last byte is written (at once if the
  /// connection is gone).
  void sendToConn(uint64_t ConnId, uint32_t Id, FrameType Type,
                  const std::string &Payload, int64_t FirstByteNs = 0);
  /// server.latency_us for a request whose first byte was read at
  /// \p FirstByteNs and whose reply is written now.
  void recordLatency(int64_t FirstByteNs);

  // --- worker-side ----------------------------------------------------------
  void compileEntry(const InflightPtr &E);
  /// Answer one waiter with \p Resp, the compile's shared response, after
  /// setting its per-waiter fields (merge marker, queue wait); the
  /// allocated text is encoded straight from it, never copied.
  void answerWaiter(const PendingPtr &W, CompileResponse &Resp,
                    const char *LogStatus, bool Cached, int64_t TaskStartNs);

  /// Terminal per-request telemetry: in-flight gauge, trace flush,
  /// request-log line. Called exactly once per answered request (guarded
  /// by Pending::Answered); the latency histogram waits for the write.
  void finishRequest(const PendingPtr &W, const char *Status, bool Cached,
                     uint64_t QueueUs, int64_t AnsweredNs);

  /// Refresh the process/cache gauges and render the registry's
  /// MetricsSnapshot as \p Format ("json", "prom", or "text").
  std::string renderStats(const std::string &Format);

  ServerOptions Opts;
  Listener L;
  RequestQueue Queue;
  /// Declared before Cache: the L1 holds a non-owning pointer to the L2,
  /// so the L2 must outlive the Cache member.
  std::unique_ptr<cache::SharedCache> L2;
  std::unique_ptr<cache::CompileCache> Cache;
  std::vector<std::thread> Workers;

  net::EventLoop Loop;
  std::thread LoopThread;

  // Loop-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<net::Connection>> Conns;
  uint64_t NextConnId = 1;
  bool DrainFinal = false; ///< final flush phase of shutdown()
  int64_t DrainDeadlineNs = 0;

  // The in-flight merge table: loop thread inserts/joins, workers remove
  // at completion.
  std::mutex MergeMu;
  std::unordered_map<cache::CacheKey, InflightPtr, cache::CacheKeyHash>
      InflightTable;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Running{false};
  std::atomic<uint64_t> Served{0};
  uint64_t ReqSeq = 0; ///< admitted-request sequence (sampling; loop only)
  bool OpenedRequestLog = false;

  /// Shutdown flushes write queues for at most this long before forcing
  /// connections closed.
  static constexpr int64_t DrainFlushTimeoutNs = 5'000'000'000;
};

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_SERVER_H
