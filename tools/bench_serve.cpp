//===- tools/bench_serve.cpp - Serving latency/throughput bench -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The serving companion to bench-compile-time: starts an in-process compile
// server on a unix socket and drives it with the load generator across a
// grid of (workload, server workers, open-loop QPS) points, writing
// BENCH_serve.json (per record: the full loadgen report — throughput and
// p50/p95/p99 latency). QPS 0 means closed-loop, measuring capacity; the
// non-zero points measure latency under a fixed offered load, including
// queueing delay (latency is charged from the scheduled send time).
//
// Usage: bench-serve [output.json] [--quick]   (default BENCH_serve.json)
//
//===----------------------------------------------------------------------===//

#include "server/LoadGen.h"
#include "server/Server.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace lsra;

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_serve.json";
  bool Quick = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;
    else
      OutPath = argv[I];
  }

  const std::string SockPath =
      "/tmp/lsra-bench-serve." + std::to_string(::getpid()) + ".sock";

  // Workload mixes: a light module, a spill-heavy one, and the full corpus.
  struct Mix {
    const char *Name;
    std::vector<std::string> Workloads;
  };
  std::vector<Mix> Mixes = {
      {"eqntott", {"eqntott"}},
      {"fpppp", {"fpppp"}},
      {"corpus",
       {"alvinn", "doduc", "eqntott", "espresso", "fpppp", "li", "tomcatv",
        "compress", "m88ksim", "sort", "wc"}},
  };
  std::vector<unsigned> WorkerCounts = {1, ThreadPool::defaultThreadCount()};
  if (WorkerCounts[1] == WorkerCounts[0])
    WorkerCounts.pop_back();
  std::vector<double> QpsPoints = {0, 200, 1000};
  unsigned Requests = Quick ? 32 : 128;

  std::ofstream OS(OutPath);
  if (!OS.good()) {
    std::fprintf(stderr, "bench-serve: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  OS << "[\n";
  bool First = true;

  for (unsigned Workers : WorkerCounts) {
    server::ServerOptions SO;
    SO.UnixPath = SockPath;
    SO.Workers = Workers;
    SO.QueueCapacity = 256;
    server::Server S(SO);
    std::string Err;
    if (!S.start(Err)) {
      std::fprintf(stderr, "bench-serve: %s\n", Err.c_str());
      return 1;
    }
    for (const Mix &M : Mixes) {
      for (double Qps : QpsPoints) {
        server::LoadGenOptions LO;
        LO.UnixPath = SockPath;
        LO.Workloads = M.Workloads;
        LO.Concurrency = 4;
        LO.Requests = Requests;
        LO.Qps = Qps;
        server::LoadGenReport R;
        if (!server::runLoadGen(LO, R, Err)) {
          std::fprintf(stderr, "bench-serve: %s/%g: %s\n", M.Name, Qps,
                       Err.c_str());
          return 1;
        }
        std::string Line = server::loadGenReportJson(LO, R);
        // Tag the record with the grid point's server configuration.
        Line.insert(1, "\"mix\": \"" + std::string(M.Name) +
                           "\", \"workers\": " + std::to_string(Workers) +
                           ", ");
        OS << (First ? "" : ",\n") << "  " << Line;
        First = false;
        std::printf("%-8s workers=%u qps=%-6g  %.1f req/s  p50 %.2fms  "
                    "p95 %.2fms  p99 %.2fms\n",
                    M.Name, Workers, Qps, R.Throughput, R.P50Ms, R.P95Ms,
                    R.P99Ms);
        std::fflush(stdout);
      }
    }

    // High-concurrency pipelined points: one loadgen event loop holding
    // hundreds of connections with deep pipelines against this server —
    // the regime the thread-fleet client cannot reach. Duplicate-heavy
    // corpus, so the rows also witness cache hits and request merging.
    for (unsigned Conns : {64u, Quick ? 128u : 512u}) {
      server::LoadGenOptions LO;
      LO.UnixPath = SockPath;
      LO.Connections = Conns;
      LO.Pipeline = 4;
      LO.Requests = Conns * (Quick ? 4 : 8);
      LO.UniquePrograms = 8;
      LO.MixSeed = 5;
      server::LoadGenReport R;
      if (!server::runLoadGen(LO, R, Err)) {
        std::fprintf(stderr, "bench-serve: pipelined/%u: %s\n", Conns,
                     Err.c_str());
        return 1;
      }
      std::string Line = server::loadGenReportJson(LO, R);
      Line.insert(1, "\"mix\": \"pipelined\", \"workers\": " +
                         std::to_string(Workers) + ", ");
      OS << (First ? "" : ",\n") << "  " << Line;
      First = false;
      std::printf("pipelined workers=%u conns=%-5u %.1f req/s  p50 %.2fms  "
                  "p95 %.2fms  p99 %.2fms  merged %llu\n",
                  Workers, Conns, R.Throughput, R.P50Ms, R.P95Ms, R.P99Ms,
                  (unsigned long long)R.MergedResponses);
      std::fflush(stdout);
    }
    S.shutdown();
  }

  OS << "\n]\n";
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
