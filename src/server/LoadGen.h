//===- server/LoadGen.h - Compile-service load generator -------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the src/workloads corpus against a compile server and reports
/// throughput and latency percentiles. One epoll event loop drives
/// Connections non-blocking connections with up to Pipeline requests in
/// flight on each, so a single loadgen process can hold tens of thousands
/// of connections against the server's event loop. Two load models:
///
///   - closed loop (Qps == 0): every connection keeps its pipeline full —
///     measures capacity; Pipeline == 1 is the classic one-request-at-a-
///     time client;
///   - open loop (Qps > 0): requests are launched on a global schedule of
///     one every 1/Qps seconds regardless of completions, and latency is
///     measured from the *scheduled* send time, so queueing delay under
///     overload is charged to the server, not hidden by client
///     self-throttling (the coordinated-omission correction).
///
/// Responses may arrive out of order and are matched by globally-unique
/// request id; any frame that cannot be matched or decoded counts as a
/// protocol error. A connection the server closes is not reopened: its
/// in-flight requests count as transport errors and the rest of the run
/// goes to the other connections. --verify additionally compiles the
/// corpus offline and byte-compares every CompileOk payload against the
/// offline result.
///
/// Per-request latencies are kept raw and percentiles computed by sorting,
/// not from a histogram, so p99 on small runs is exact.
///
//===----------------------------------------------------------------------===//

#ifndef LSRA_SERVER_LOADGEN_H
#define LSRA_SERVER_LOADGEN_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lsra {
namespace server {

struct LoadGenOptions {
  // Where to connect (unix path wins when non-empty).
  std::string UnixPath;
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;

  /// Workload names (see `lsra list`); requests round-robin across them.
  std::vector<std::string> Workloads;

  /// Repeated-mix mode: when non-zero, the corpus is replaced by
  /// UniquePrograms distinct seeded random programs and requests cycle
  /// through them, so a server cache should converge on a hit rate of
  /// (Requests - UniquePrograms) / Requests. 0 = replay Workloads.
  unsigned UniquePrograms = 0;
  uint64_t MixSeed = 1; ///< base seed for the repeated-mix programs

  unsigned Requests = 64; ///< total requests to send
  double Qps = 0;         ///< open-loop arrival rate (0 = closed loop)

  /// Connections driven from the one event loop.
  unsigned Connections = 4;
  /// Maximum requests in flight per connection.
  unsigned Pipeline = 1;
  /// Compile the corpus offline first and byte-compare every CompileOk
  /// response's IR text against the offline result.
  bool Verify = false;

  // Per-request knobs, forwarded verbatim.
  std::string Allocator = "binpack";
  unsigned Regs = 0; ///< 0 or MinRegLimit..MaxRegLimit (parseRegLimit)
  bool Run = false;
  uint32_t DeadlineMs = 0;
  bool NoCache = false; ///< ask the server to bypass its compile cache

  /// When non-empty, write one JSONL record per answered request (id,
  /// connection, send/recv steady-clock timestamps, status, and the
  /// server-reported queue_us) so the client's view joins against the
  /// server's --request-log by request id. Ids number the requests 1..N
  /// across all connections, so they are unique within a run.
  std::string RecordOut;
};

struct LoadGenReport {
  uint64_t Sent = 0;
  uint64_t Ok = 0;
  uint64_t Rejected = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t Errors = 0;          ///< typed Error responses
  uint64_t TransportErrors = 0; ///< send/recv failures
  double WallSeconds = 0;
  double Throughput = 0; ///< completed responses per wall second
  // Latency over all answered requests, milliseconds.
  double MeanMs = 0, P50Ms = 0, P95Ms = 0, P99Ms = 0, MaxMs = 0;
  uint64_t BytesSent = 0, BytesReceived = 0;
  uint64_t CachedResponses = 0; ///< CompileOk frames carrying cached=1
  uint64_t MergedResponses = 0; ///< responses carrying merged=1
  uint64_t ProtocolErrors = 0;  ///< undecodable frames / unmatched ids
  uint64_t VerifyMismatches = 0; ///< CompileOk bytes != offline compile
};

/// Run the load test. False (with \p Err) only for setup failures
/// (unknown workload or allocator, no connection, failed --verify compile);
/// per-request failures are counted in the report instead.
bool runLoadGen(const LoadGenOptions &Opts, LoadGenReport &Out,
                std::string &Err);

/// One-line JSON encoding of (options, report); `lsra loadgen --json=F`
/// appends it to F.
std::string loadGenReportJson(const LoadGenOptions &Opts,
                              const LoadGenReport &R);

/// Exact percentile by sorting a copy of \p SamplesMs (0 when empty).
double latencyPercentile(std::vector<double> SamplesMs, double P);

} // namespace server
} // namespace lsra

#endif // LSRA_SERVER_LOADGEN_H
