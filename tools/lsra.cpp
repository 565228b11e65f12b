//===- tools/lsra.cpp - Command-line driver --------------------*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library:
//
//   lsra list
//       List the built-in workloads.
//   lsra print <input>
//       Dump a program in the textual IR form (parse it back with any
//       other subcommand).
//   lsra dot <input> [function]
//       Emit a Graphviz CFG.
//   lsra run <input> [--allocator=K] [--regs=N] [--no-alloc] [--cleanup]
//       Compile with the chosen allocator (default second-chance
//       binpacking) and execute on the VM; prints outputs and statistics.
//   lsra compare <input> [--regs=N]
//       Run the reference and every registered allocator; print a
//       comparison.
//
// <input> is either a built-in workload name (see `lsra list`) or a path
// to a textual IR file.
//
//===----------------------------------------------------------------------===//

#include "cache/CompileCache.h"
#include "cache/SharedCache.h"
#include "check/Clone.h"
#include "check/Fuzz.h"
#include "check/Reduce.h"
#include "check/Verifier.h"
#include "regalloc/Registry.h"
#include "driver/Options.h"
#include "driver/Pipeline.h"
#include "ir/IRVerifier.h"
#include "passes/DCE.h"
#include "target/LowerCalls.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/LoadGen.h"
#include "server/Server.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

using namespace lsra;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lsra <command> [args]\n"
               "  list                          list built-in workloads\n"
               "  print <input>                 dump textual IR\n"
               "  dot <input> [function]        emit a Graphviz CFG\n"
               "  run <input> [options]         compile and execute\n"
               "  compare <input> [--regs=N]    compare all allocators\n"
               "  serve [options]               compile server (framed IR "
               "over a socket)\n"
               "  loadgen [options]             replay workloads against a "
               "server\n"
               "  stats <addr> [--prom|--text]  fetch a live metrics "
               "snapshot\n"
               "  top <addr> [options]          live-refresh server "
               "telemetry\n"
               "  fuzz [options]                differential allocator "
               "fuzzing\n"
               "  reduce <file> [options]       minimize a failing program "
               "(ddmin)\n"
               "options for serve:\n"
               "  --socket=PATH  unix-domain socket path (default "
               "/tmp/lsra.sock)\n"
               "  --port=N       loopback TCP instead of unix (0 = "
               "ephemeral)\n"
               "  --workers=N    compile workers (0 = hardware threads)\n"
               "  --queue=N      admission-queue bound (reject above; "
               "default 64)\n"
               "  --deadline-ms=N default per-request deadline (0 = none)\n"
               "  --stats-json=F write the metrics snapshot (the StatsReply\n"
               "                 document) on exit\n"
               "  --sample=N     trace every Nth request (0 = off)\n"
               "  --request-log=F per-request JSONL timing records (implies "
               "--sample=1)\n"
               "  --trace-out=F  Chrome trace of sampled requests, written "
               "on exit\n"
               "  --l2-path=F    shared-memory L2 compile cache segment\n"
               "  --l2-mb=N      L2 segment budget in MiB (default 256)\n"
               "options for loadgen:\n"
               "  --socket=PATH | --port=N      server address\n"
               "  --workloads=a,b,c  corpus to replay (default all)\n"
               "  --requests=N       total requests (default 64)\n"
               "  --qps=R            open-loop arrival rate (0 = closed "
               "loop)\n"
               "  --connections=N    client connections, all driven from\n"
               "                     one event loop (default 4)\n"
               "  --pipeline=D       max in-flight requests per connection\n"
               "                     (default 1)\n"
               "  --verify           byte-compare responses against offline\n"
               "                     compiles of the same corpus\n"
               "  --allocator=K --regs=N --run --deadline-ms=N  per-request\n"
               "  --json=F           append the report as one JSON line\n"
               "  --record-out=F     per-request JSONL records (joins the\n"
               "                     server --request-log by request id)\n"
               "options for stats / top:\n"
               "  <addr>         --socket=PATH | --port=N (same as loadgen)\n"
               "  --prom | --text    rendering (stats; default json)\n"
               "  --interval-ms=N    refresh period for top (default 1000)\n"
               "  --count=N          stop top after N refreshes (0 = until "
               "interrupted)\n"
               "shared compile flags (run, serve, loadgen, reduce):\n"
               "%s"
               "options for run:\n"
               "  --no-alloc     execute with virtual registers (reference)\n"
               "  --emit-ir      print the final IR after allocation\n"
               "options for loadgen (repeated-mix):\n"
               "  --unique=K     cycle K seeded random programs instead of\n"
               "                 the workload corpus (cache hit-rate tests)\n"
               "  --mix-seed=N   base seed for --unique programs\n"
               "  --no-cache     ask the server to bypass its cache\n"
               "options for fuzz:\n"
               "  --seed=N --count=N            seed range (default 1..100)\n"
               "  --regs=a,b,c   register limits to stress (default 0,8,4)\n"
               "  --allocator=K  restrict to one allocator (default: every\n"
               "                 backend in the allocator registry)\n"
               "  --no-cleanup   skip the spill-cleanup configurations\n"
               "  --no-cache-diff  skip the cold/warm compile-cache oracle\n"
               "  --no-reduce    keep findings unminimized\n"
               "  --corpus=DIR   write minimized reproducers here\n"
               "  --max-findings=N  stop after N findings (default 8)\n"
               "  --statements=N    program size knob (default 60)\n"
               "  --threads=N    check programs on N workers (default 0 =\n"
               "                 hardware threads); the report is the same\n"
               "                 at any N\n"
               "options for reduce:\n"
               "  --allocator=K --regs=N --cleanup   failing configuration\n"
               "  -o FILE        write the minimized program here\n"
               "observability options for run:\n"
               "  --trace-out=F  write a Chrome trace_event JSON span trace\n"
               "  --stats-json=F write the metrics snapshot (the StatsReply\n"
               "                 document)\n"
               "  --explain[=F]  dump the allocation-decision log (stdout,\n"
               "                 or to F; JSONL when F ends in .jsonl)\n"
               "  --log-level=N  diagnostic verbosity on stderr (default 0)\n",
               compileFlagsHelp());
  return 2;
}

std::unique_ptr<Module> loadInput(const std::string &Input,
                                  std::string &Error) {
  std::ifstream File(Input);
  if (File.good()) {
    std::ostringstream SS;
    SS << File.rdbuf();
    ParseResult R = parseModule(SS.str());
    if (!R.ok()) {
      Error = Input + ": " + R.Error;
      return nullptr;
    }
    std::string Diag = verifyModule(*R.M);
    if (!Diag.empty()) {
      Error = Input + ": " + Diag;
      return nullptr;
    }
    return std::move(R.M);
  }
  for (const WorkloadSpec &W : allWorkloads())
    if (Input == W.Name)
      return W.Build();
  Error = "no such file or workload: '" + Input + "' (try `lsra list`)";
  return nullptr;
}

void printRun(const RunResult &Run) {
  if (!Run.Ok) {
    std::printf("execution FAILED: %s\n", Run.Error.c_str());
    return;
  }
  std::printf("return value: %lld\n", (long long)Run.ReturnValue);
  std::printf("output trace (%zu values):", Run.Output.size());
  for (unsigned I = 0; I < Run.Output.size() && I < 16; ++I)
    std::printf(" %llu", (unsigned long long)Run.Output[I]);
  if (Run.Output.size() > 16)
    std::printf(" ...");
  std::printf("\ndynamic instructions: %llu (cycles %llu)\n",
              (unsigned long long)Run.Stats.Total,
              (unsigned long long)Run.Stats.Cycles);
  std::printf("spill instructions:   %llu (%.3f%%)\n",
              (unsigned long long)Run.Stats.spillInstrs(),
              Run.Stats.spillPercent());
}

int cmdList() {
  for (const WorkloadSpec &W : allWorkloads())
    std::printf("%-10s %s\n", W.Name, W.Description);
  return 0;
}

int cmdPrint(const std::string &Input) {
  std::string Error;
  auto M = loadInput(Input, Error);
  if (!M) {
    std::fprintf(stderr, "lsra: %s\n", Error.c_str());
    return 1;
  }
  printModule(std::cout, *M);
  return 0;
}

int cmdDot(const std::string &Input, const char *FuncName) {
  std::string Error;
  auto M = loadInput(Input, Error);
  if (!M) {
    std::fprintf(stderr, "lsra: %s\n", Error.c_str());
    return 1;
  }
  const Function *F = FuncName ? M->findFunction(FuncName)
                               : M->findFunction("main");
  if (!F && M->numFunctions() > 0)
    F = &M->function(0);
  if (!F) {
    std::fprintf(stderr, "lsra: no function to plot\n");
    return 1;
  }
  printDotCFG(std::cout, *F, M.get());
  return 0;
}

/// Dump the decision log to stdout, or to \p Path (JSONL when the name
/// ends in ".jsonl", text otherwise).
bool dumpExplain(const std::string &Path) {
  obs::DecisionLog &DL = obs::DecisionLog::global();
  if (Path.empty()) {
    DL.writeText(std::cout);
    return true;
  }
  std::ofstream OS(Path);
  if (!OS.good()) {
    std::fprintf(stderr, "lsra: cannot write '%s'\n", Path.c_str());
    return false;
  }
  bool Jsonl = Path.size() >= 6 &&
               Path.compare(Path.size() - 6, 6, ".jsonl") == 0;
  if (Jsonl)
    DL.writeJsonl(OS);
  else
    DL.writeText(OS);
  return OS.good();
}

/// Write the registry's metrics snapshot to \p Path: the same versioned
/// document a StatsRequest returns.
bool writeStatsJson(const std::string &Path) {
  std::ofstream OS(Path);
  OS << obs::CounterRegistry::global().metricsSnapshot().toJson();
  if (OS.good())
    return true;
  std::fprintf(stderr, "lsra: cannot write '%s'\n", Path.c_str());
  return false;
}

/// Parse the value of a `--regs=` flag; prints the error itself.
bool parseRegsFlag(const std::string &Text, unsigned &Regs) {
  std::string Err;
  if (parseRegLimit(Text, Regs, Err))
    return true;
  std::fprintf(stderr, "lsra: --regs: %s\n", Err.c_str());
  return false;
}

int cmdRun(const std::string &Input, int Argc, char **Argv) {
  CompileFlags F;
  bool NoAlloc = false, EmitIR = false;
  bool Explain = false;
  std::string TraceOut, StatsJson, ExplainOut;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string FlagErr;
    if (parseCompileFlag(A, F, FlagErr)) {
      if (!FlagErr.empty()) {
        std::fprintf(stderr, "lsra: %s\n", FlagErr.c_str());
        return 1;
      }
    } else if (A == "--no-alloc") {
      NoAlloc = true;
    } else if (A == "--emit-ir") {
      EmitIR = true;
    } else if (A.rfind("--trace-out=", 0) == 0) {
      TraceOut = A.substr(12);
    } else if (A.rfind("--stats-json=", 0) == 0) {
      StatsJson = A.substr(13);
    } else if (A == "--explain") {
      Explain = true;
    } else if (A.rfind("--explain=", 0) == 0) {
      Explain = true;
      ExplainOut = A.substr(10);
    } else if (A.rfind("--log-level=", 0) == 0) {
      obs::setLogLevel(
          static_cast<unsigned>(std::strtoul(A.c_str() + 12, nullptr, 10)));
    } else {
      return usage();
    }
  }

  std::string Error;
  auto M = loadInput(Input, Error);
  if (!M) {
    std::fprintf(stderr, "lsra: %s\n", Error.c_str());
    return 1;
  }
  TargetDesc TD = targetForFlags(F);

  obs::Tracer &Tracer = obs::Tracer::global();
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  obs::DecisionLog &DL = obs::DecisionLog::global();
  if (!TraceOut.empty())
    Tracer.enable();
  if (!StatsJson.empty())
    CR.enable();
  if (Explain)
    DL.enable();

  if (NoAlloc) {
    RunResult Run = runReference(*M, TD);
    printRun(Run);
    if (!TraceOut.empty() && !Tracer.writeChromeJson(TraceOut)) {
      std::fprintf(stderr, "lsra: cannot write '%s'\n", TraceOut.c_str());
      return 1;
    }
    return Run.Ok ? 0 : 1;
  }

  // --verify-alloc: snapshot the allocator's exact input (lowering and DCE
  // are idempotent, so compileModule repeats them as no-ops) and prove the
  // allocated module equivalent to it afterwards.
  std::unique_ptr<Module> Snapshot;
  if (F.Exec.VerifyAlloc) {
    lowerCalls(*M);
    eliminateDeadCode(*M, TD);
    Snapshot = cloneModule(*M);
  }
  std::string L2Err;
  std::unique_ptr<cache::SharedCache> L2 = makeSharedCache(F, L2Err);
  if (!L2Err.empty()) {
    std::fprintf(stderr, "lsra: %s\n", L2Err.c_str());
    return 1;
  }
  std::unique_ptr<cache::CompileCache> Cache = makeCompileCache(F);
  if (Cache && L2)
    Cache->attachL2(L2.get());
  F.Exec.Cache = Cache.get();
  AllocStats Stats;
  if (Cache) {
    // With a cache attached, compile the way the server does: the whole
    // module as text through compileTextModule, so module-level entries
    // (the only kind the shared L2 carries) are probed and published and
    // a second `lsra run` against the same --l2-path warms from the
    // segment. The allocated text is parsed back for the VM run below;
    // print→parse is a fixed point, so the executed module is the same
    // either way.
    std::ostringstream SS;
    printModule(SS, *M);
    TextCompileResult R =
        compileTextModule(SS.str(), TD, F.Kind, F.Alloc, F.Exec);
    if (!R.Ok) {
      std::fprintf(stderr, "lsra: %s\n", R.Error.c_str());
      return 1;
    }
    ParseResult P = parseModule(R.AllocatedText);
    if (!P.ok()) {
      std::fprintf(stderr, "lsra: allocated module did not re-parse: %s\n",
                   P.Error.c_str());
      return 1;
    }
    M = std::move(P.M);
    Stats = R.Stats;
    if (R.CacheHit)
      std::printf("cache: hit (%s)\n", R.CacheL2 ? "shared l2" : "l1");
  } else {
    Stats = compileModule(*M, TD, F.Kind, F.Alloc, F.Exec);
  }
  std::string Diag = checkAllocated(*M);
  if (!Diag.empty()) {
    std::fprintf(stderr, "lsra: post-allocation verification failed:\n%s\n",
                 Diag.c_str());
    return 1;
  }
  if (Snapshot) {
    check::VerifyAllocResult VR = check::verifyAllocation(*Snapshot, *M, TD);
    if (!VR.ok()) {
      std::fprintf(stderr, "lsra: allocation verification failed:\n%s",
                   VR.str().c_str());
      return 1;
    }
    std::printf("allocation verified (%u functions)\n", M->numFunctions());
  }
  std::printf("allocator: %s\n", allocatorName(F.Kind));
  std::printf("candidates=%u spilled=%u static-spill=%u coalesced=%u "
              "splits=%u alloc-time=%.4fs\n",
              Stats.RegCandidates, Stats.SpilledTemps,
              Stats.staticSpillInstrs(), Stats.MovesCoalesced,
              Stats.LifetimeSplits, Stats.AllocSeconds);
  if (EmitIR)
    printModule(std::cout, *M);
  if (Explain && !dumpExplain(ExplainOut))
    return 1;
  RunResult Run = runAllocated(*M, TD);
  printRun(Run);

  if (!StatsJson.empty()) {
    CR.recordAllocStats(Stats);
    CR.recordAllocProfile();
    if (Cache)
      cache::refreshCacheGauges(*Cache);
    if (!writeStatsJson(StatsJson))
      return 1;
  }
  // The trace covers everything including the VM run: write it last.
  if (!TraceOut.empty() && !Tracer.writeChromeJson(TraceOut)) {
    std::fprintf(stderr, "lsra: cannot write '%s'\n", TraceOut.c_str());
    return 1;
  }
  return Run.Ok ? 0 : 1;
}

int cmdCompare(const std::string &Input, int Argc, char **Argv) {
  unsigned Regs = 0;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--regs=", 0) != 0)
      return usage();
    if (!parseRegsFlag(A.substr(7), Regs))
      return 1;
  }
  TargetDesc TD = targetForRegLimit(Regs);

  std::string Error;
  auto Ref = loadInput(Input, Error);
  if (!Ref) {
    std::fprintf(stderr, "lsra: %s\n", Error.c_str());
    return 1;
  }
  // Keep the text around so each allocator starts from a fresh module.
  std::ostringstream SS;
  printModule(SS, *Ref);
  std::string Text = SS.str();

  RunResult RefRun = runReference(*Ref, TD);
  if (!RefRun.Ok) {
    std::fprintf(stderr, "lsra: reference failed: %s\n", RefRun.Error.c_str());
    return 1;
  }
  std::printf("%-24s %14s %10s %10s %10s\n", "allocator", "dyn instrs",
              "ratio", "spill %", "alloc s");
  std::printf("%-24s %14llu %10s %10s %10s\n", "(reference)",
              (unsigned long long)RefRun.Stats.Total, "1.000", "-", "-");
  for (AllocatorKind K : AllocatorRegistry::global().kinds()) {
    ParseResult P = parseModule(Text);
    if (!P.ok()) {
      std::fprintf(stderr, "lsra: internal round-trip failure: %s\n",
                   P.Error.c_str());
      return 1;
    }
    AllocStats Stats = compileModule(*P.M, TD, K);
    RunResult Run = runAllocated(*P.M, TD);
    bool Same = Run.Ok && Run.Output == RefRun.Output &&
                Run.ReturnValue == RefRun.ReturnValue;
    std::printf("%-24s %14llu %10.3f %9.2f%% %10.4f %s\n", allocatorName(K),
                (unsigned long long)Run.Stats.Total,
                static_cast<double>(Run.Stats.Total) /
                    static_cast<double>(RefRun.Stats.Total),
                Run.Stats.spillPercent(), Stats.AllocSeconds,
                Same ? "" : "OUTPUT MISMATCH!");
    if (!Same)
      return 1;
  }
  return 0;
}

// --- serve / loadgen -------------------------------------------------------

std::atomic<bool> GStopRequested{false};

void onStopSignal(int) { GStopRequested.store(true); }

int cmdServe(int Argc, char **Argv) {
  server::ServerOptions SO;
  SO.UnixPath = "/tmp/lsra.sock";
  bool UseTcp = false;
  bool SampleSet = false;
  std::string StatsJson, TraceOut;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--socket=", 0) == 0) {
      SO.UnixPath = A.substr(9);
      UseTcp = false;
    } else if (A.rfind("--port=", 0) == 0) {
      SO.TcpPort =
          static_cast<uint16_t>(std::strtoul(A.c_str() + 7, nullptr, 10));
      UseTcp = true;
    } else if (A.rfind("--workers=", 0) == 0) {
      SO.Workers =
          static_cast<unsigned>(std::strtoul(A.c_str() + 10, nullptr, 10));
    } else if (A.rfind("--queue=", 0) == 0) {
      SO.QueueCapacity =
          static_cast<unsigned>(std::strtoul(A.c_str() + 8, nullptr, 10));
    } else if (A.rfind("--deadline-ms=", 0) == 0) {
      SO.DefaultDeadlineMs =
          static_cast<uint32_t>(std::strtoul(A.c_str() + 14, nullptr, 10));
    } else if (A.rfind("--stats-json=", 0) == 0) {
      StatsJson = A.substr(13);
    } else if (A.rfind("--sample=", 0) == 0) {
      SO.SampleEvery =
          static_cast<unsigned>(std::strtoul(A.c_str() + 9, nullptr, 10));
      SampleSet = true;
    } else if (A.rfind("--request-log=", 0) == 0) {
      SO.RequestLogPath = A.substr(14);
    } else if (A.rfind("--trace-out=", 0) == 0) {
      TraceOut = A.substr(12);
    } else if (A == "--verify-alloc") {
      SO.VerifyAlloc = true;
    } else if (A.rfind("--cache-mb=", 0) == 0) {
      SO.CacheBytes =
          static_cast<size_t>(std::strtoul(A.c_str() + 11, nullptr, 10))
          << 20;
    } else if (A == "--no-cache") {
      SO.CacheBytes = 0;
    } else if (A.rfind("--l2-path=", 0) == 0) {
      SO.L2Path = A.substr(10);
    } else if (A.rfind("--l2-mb=", 0) == 0) {
      SO.L2Bytes =
          static_cast<size_t>(std::strtoul(A.c_str() + 8, nullptr, 10)) << 20;
    } else if (A.rfind("--log-level=", 0) == 0) {
      obs::setLogLevel(
          static_cast<unsigned>(std::strtoul(A.c_str() + 12, nullptr, 10)));
    } else {
      return usage();
    }
  }
  if (UseTcp)
    SO.UnixPath.clear();
  // A request-log or trace sink without an explicit sampling rate means
  // "trace everything": sampling is what feeds both sinks.
  if (!SampleSet && (!SO.RequestLogPath.empty() || !TraceOut.empty()))
    SO.SampleEvery = 1;

  if (!StatsJson.empty())
    obs::CounterRegistry::global().enable();
  if (!TraceOut.empty())
    obs::Tracer::global().enable();

  server::Server S(SO);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "lsra serve: %s\n", Err.c_str());
    return 1;
  }
  if (UseTcp)
    std::printf("lsra serve: listening on 127.0.0.1:%u\n", S.port());
  else
    std::printf("lsra serve: listening on %s\n", SO.UnixPath.c_str());
  std::fflush(stdout);

  // Graceful drain on SIGINT/SIGTERM: the handler only sets a flag; the
  // drain itself runs on this thread, outside signal context.
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  while (!GStopRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::printf("lsra serve: draining...\n");
  S.shutdown();
  std::printf("lsra serve: drained after %llu responses\n",
              (unsigned long long)S.requestsServed());

  if (!TraceOut.empty()) {
    obs::Tracer &TR = obs::Tracer::global();
    TR.disable();
    if (!TR.writeChromeJson(TraceOut)) {
      std::fprintf(stderr, "lsra serve: cannot write '%s'\n",
                   TraceOut.c_str());
      return 1;
    }
  }

  if (!StatsJson.empty() && !writeStatsJson(StatsJson))
    return 1;
  return 0;
}

int cmdLoadgen(int Argc, char **Argv) {
  server::LoadGenOptions LO;
  std::string JsonOut;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--socket=", 0) == 0) {
      LO.UnixPath = A.substr(9);
    } else if (A.rfind("--port=", 0) == 0) {
      LO.Port =
          static_cast<uint16_t>(std::strtoul(A.c_str() + 7, nullptr, 10));
    } else if (A.rfind("--workloads=", 0) == 0) {
      std::istringstream SS(A.substr(12));
      std::string W;
      while (std::getline(SS, W, ','))
        if (!W.empty())
          LO.Workloads.push_back(W);
    } else if (A.rfind("--requests=", 0) == 0) {
      LO.Requests =
          static_cast<unsigned>(std::strtoul(A.c_str() + 11, nullptr, 10));
    } else if (A.rfind("--qps=", 0) == 0) {
      LO.Qps = std::strtod(A.c_str() + 6, nullptr);
    } else if (A.rfind("--allocator=", 0) == 0) {
      LO.Allocator = A.substr(12);
    } else if (A.rfind("--regs=", 0) == 0) {
      if (!parseRegsFlag(A.substr(7), LO.Regs))
        return 1;
    } else if (A == "--run") {
      LO.Run = true;
    } else if (A.rfind("--deadline-ms=", 0) == 0) {
      LO.DeadlineMs =
          static_cast<uint32_t>(std::strtoul(A.c_str() + 14, nullptr, 10));
    } else if (A.rfind("--unique=", 0) == 0) {
      LO.UniquePrograms =
          static_cast<unsigned>(std::strtoul(A.c_str() + 9, nullptr, 10));
    } else if (A.rfind("--mix-seed=", 0) == 0) {
      LO.MixSeed = std::strtoull(A.c_str() + 11, nullptr, 10);
    } else if (A == "--no-cache") {
      LO.NoCache = true;
    } else if (A.rfind("--connections=", 0) == 0) {
      LO.Connections =
          static_cast<unsigned>(std::strtoul(A.c_str() + 14, nullptr, 10));
    } else if (A.rfind("--pipeline=", 0) == 0) {
      LO.Pipeline =
          static_cast<unsigned>(std::strtoul(A.c_str() + 11, nullptr, 10));
    } else if (A == "--verify") {
      LO.Verify = true;
    } else if (A.rfind("--json=", 0) == 0) {
      JsonOut = A.substr(7);
    } else if (A.rfind("--record-out=", 0) == 0) {
      LO.RecordOut = A.substr(13);
    } else {
      return usage();
    }
  }
  if (LO.UnixPath.empty() && LO.Port == 0) {
    std::fprintf(stderr, "lsra loadgen: need --socket=PATH or --port=N\n");
    return 2;
  }
  if (LO.Workloads.empty())
    for (const WorkloadSpec &W : allWorkloads())
      LO.Workloads.push_back(W.Name);

  server::LoadGenReport R;
  std::string Err;
  if (!server::runLoadGen(LO, R, Err)) {
    std::fprintf(stderr, "lsra loadgen: %s\n", Err.c_str());
    return 1;
  }
  std::printf("sent %llu: ok %llu (cached %llu, merged %llu), "
              "rejected %llu, "
              "deadline %llu, error %llu, transport %llu, protocol %llu\n",
              (unsigned long long)R.Sent, (unsigned long long)R.Ok,
              (unsigned long long)R.CachedResponses,
              (unsigned long long)R.MergedResponses,
              (unsigned long long)R.Rejected,
              (unsigned long long)R.DeadlineExceeded,
              (unsigned long long)R.Errors,
              (unsigned long long)R.TransportErrors,
              (unsigned long long)R.ProtocolErrors);
  if (LO.Verify)
    std::printf("verify: %llu mismatches\n",
                (unsigned long long)R.VerifyMismatches);
  std::printf("wall %.3fs, throughput %.1f req/s\n", R.WallSeconds,
              R.Throughput);
  std::printf("latency ms: mean %.2f p50 %.2f p95 %.2f p99 %.2f max %.2f\n",
              R.MeanMs, R.P50Ms, R.P95Ms, R.P99Ms, R.MaxMs);
  std::printf("bytes: sent %llu received %llu\n",
              (unsigned long long)R.BytesSent,
              (unsigned long long)R.BytesReceived);
  if (!JsonOut.empty()) {
    std::ofstream OS(JsonOut, std::ios::app);
    if (!OS.good()) {
      std::fprintf(stderr, "lsra loadgen: cannot write '%s'\n",
                   JsonOut.c_str());
      return 1;
    }
    OS << server::loadGenReportJson(LO, R) << "\n";
  }
  // Protocol desync or a verify mismatch is always a failure; otherwise any
  // successful responses at all count as success and only a fully failed
  // run (server down mid-test) fails the command.
  if (R.ProtocolErrors > 0 || R.VerifyMismatches > 0)
    return 1;
  return R.Ok > 0 || R.Rejected > 0 || R.DeadlineExceeded > 0 ? 0 : 1;
}

// --- stats / top -----------------------------------------------------------

/// Shared address parsing for the stats/top clients. Accepts --socket=PATH
/// and --port=N like loadgen, plus one bare positional: all-digits is a
/// port, anything else a unix socket path.
bool parseStatsAddr(const std::string &A, std::string &UnixPath,
                    uint16_t &Port) {
  if (A.rfind("--socket=", 0) == 0) {
    UnixPath = A.substr(9);
    return true;
  }
  if (A.rfind("--port=", 0) == 0) {
    Port = static_cast<uint16_t>(std::strtoul(A.c_str() + 7, nullptr, 10));
    return true;
  }
  if (!A.empty() && A[0] != '-') {
    if (A.find_first_not_of("0123456789") == std::string::npos)
      Port = static_cast<uint16_t>(std::strtoul(A.c_str(), nullptr, 10));
    else
      UnixPath = A;
    return true;
  }
  return false;
}

server::Client connectStats(const std::string &UnixPath, uint16_t Port,
                            std::string &Err) {
  return UnixPath.empty() ? server::Client::connectTcp("127.0.0.1", Port, Err)
                          : server::Client::connectUnix(UnixPath, Err);
}

int cmdStats(int Argc, char **Argv) {
  std::string UnixPath;
  uint16_t Port = 0;
  std::string Format = "json";
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--prom")
      Format = "prom";
    else if (A == "--text")
      Format = "text";
    else if (A == "--json")
      Format = "json";
    else if (!parseStatsAddr(A, UnixPath, Port))
      return usage();
  }
  if (UnixPath.empty() && Port == 0) {
    std::fprintf(stderr, "lsra stats: need --socket=PATH or --port=N\n");
    return 2;
  }
  std::string Err;
  server::Client C = connectStats(UnixPath, Port, Err);
  if (!C.valid()) {
    std::fprintf(stderr, "lsra stats: %s\n", Err.c_str());
    return 1;
  }
  std::string Doc;
  if (!C.stats(Format, Doc, Err, 5000)) {
    std::fprintf(stderr, "lsra stats: %s\n", Err.c_str());
    return 1;
  }
  std::fputs(Doc.c_str(), stdout);
  if (!Doc.empty() && Doc.back() != '\n')
    std::fputc('\n', stdout);
  return 0;
}

int cmdTop(int Argc, char **Argv) {
  std::string UnixPath;
  uint16_t Port = 0;
  unsigned IntervalMs = 1000, Count = 0;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--interval-ms=", 0) == 0)
      IntervalMs = static_cast<unsigned>(
          std::strtoul(A.c_str() + 14, nullptr, 10));
    else if (A.rfind("--count=", 0) == 0)
      Count = static_cast<unsigned>(std::strtoul(A.c_str() + 8, nullptr, 10));
    else if (!parseStatsAddr(A, UnixPath, Port))
      return usage();
  }
  if (UnixPath.empty() && Port == 0) {
    std::fprintf(stderr, "lsra top: need --socket=PATH or --port=N\n");
    return 2;
  }
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  std::string Err;
  server::Client C = connectStats(UnixPath, Port, Err);
  if (!C.valid()) {
    std::fprintf(stderr, "lsra top: %s\n", Err.c_str());
    return 1;
  }
  for (unsigned Iter = 0; !GStopRequested.load(); ++Iter) {
    std::string Doc;
    if (!C.stats("text", Doc, Err, 5000)) {
      // One reconnect attempt: the server may have restarted between
      // refreshes; a second failure ends the loop.
      C = connectStats(UnixPath, Port, Err);
      if (!C.valid() || !C.stats("text", Doc, Err, 5000)) {
        std::fprintf(stderr, "lsra top: %s\n", Err.c_str());
        return 1;
      }
    }
    // Home the cursor and clear below, rather than a full clear, so the
    // refresh does not flicker.
    std::fputs("\x1b[H\x1b[J", stdout);
    std::fputs(Doc.c_str(), stdout);
    std::fflush(stdout);
    if (Count && Iter + 1 >= Count)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  return 0;
}

// --- fuzz / reduce ---------------------------------------------------------

int cmdFuzz(int Argc, char **Argv) {
  check::FuzzOptions FO;
  FO.Threads = 0; // one worker per hardware thread unless --threads says
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--seed=", 0) == 0) {
      FO.SeedStart = std::strtoull(A.c_str() + 7, nullptr, 10);
    } else if (A.rfind("--count=", 0) == 0) {
      FO.Count =
          static_cast<unsigned>(std::strtoul(A.c_str() + 8, nullptr, 10));
    } else if (A.rfind("--regs=", 0) == 0) {
      FO.RegLimits.clear();
      std::istringstream SS(A.substr(7));
      std::string R;
      unsigned Regs;
      while (std::getline(SS, R, ','))
        if (!R.empty()) {
          if (!parseRegsFlag(R, Regs))
            return 1;
          FO.RegLimits.push_back(Regs);
        }
    } else if (A.rfind("--allocator=", 0) == 0) {
      AllocatorKind K;
      if (!parseAllocatorName(A.substr(12), K)) {
        std::fprintf(stderr, "lsra: unknown allocator '%s'\n",
                     A.c_str() + 12);
        return 2;
      }
      FO.Allocators = {K};
    } else if (A == "--no-cleanup") {
      FO.WithSpillCleanup = false;
    } else if (A == "--no-cache-diff") {
      FO.WithCache = false;
    } else if (A == "--no-reduce") {
      FO.Reduce = false;
    } else if (A.rfind("--corpus=", 0) == 0) {
      FO.CorpusDir = A.substr(9);
    } else if (A.rfind("--max-findings=", 0) == 0) {
      FO.MaxFindings =
          static_cast<unsigned>(std::strtoul(A.c_str() + 15, nullptr, 10));
    } else if (A.rfind("--threads=", 0) == 0) {
      FO.Threads =
          static_cast<unsigned>(std::strtoul(A.c_str() + 10, nullptr, 10));
    } else if (A.rfind("--statements=", 0) == 0) {
      FO.Program.Statements =
          static_cast<unsigned>(std::strtoul(A.c_str() + 13, nullptr, 10));
    } else {
      return usage();
    }
  }
  if (FO.RegLimits.empty())
    FO.RegLimits = {0};

  check::FuzzReport Report = check::runDifferentialFuzz(FO, &std::cout);
  std::printf("fuzz: %u programs, %u differential runs, %zu findings\n",
              Report.Programs, Report.Runs, Report.Findings.size());
  for (const check::FuzzFinding &F : Report.Findings) {
    std::printf("  seed=%llu allocator=%s regs=%u%s %s: %s\n",
                (unsigned long long)F.Seed, allocatorName(F.K), F.Regs,
                F.SpillCleanup ? " cleanup" : "", F.Kind.c_str(),
                F.Detail.c_str());
    if (!F.CorpusFile.empty())
      std::printf("    reproducer: %s\n", F.CorpusFile.c_str());
  }
  return Report.clean() ? 0 : 1;
}

int cmdReduce(const std::string &Input, int Argc, char **Argv) {
  AllocatorKind Kind = AllocatorKind::SecondChanceBinpack;
  unsigned Regs = 0;
  bool Cleanup = false;
  std::string OutFile;
  for (int I = 0; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--allocator=", 0) == 0) {
      if (!parseAllocatorName(A.substr(12), Kind)) {
        std::fprintf(stderr, "lsra: unknown allocator '%s'\n",
                     A.c_str() + 12);
        return 2;
      }
    } else if (A.rfind("--regs=", 0) == 0) {
      if (!parseRegsFlag(A.substr(7), Regs))
        return 1;
    } else if (A == "--cleanup") {
      Cleanup = true;
    } else if (A == "-o" && I + 1 < Argc) {
      OutFile = Argv[++I];
    } else {
      return usage();
    }
  }
  std::ifstream File(Input);
  if (!File.good()) {
    std::fprintf(stderr, "lsra: cannot read '%s'\n", Input.c_str());
    return 1;
  }
  std::ostringstream SS;
  SS << File.rdbuf();
  std::string Text = SS.str();

  check::OracleResult O = check::runOracle(Text, Kind, Regs, Cleanup);
  if (!O.fail()) {
    std::fprintf(stderr,
                 "lsra reduce: oracle does not fail on this input "
                 "(allocator=%s regs=%u%s); nothing to minimize\n",
                 allocatorName(Kind), Regs, Cleanup ? " cleanup" : "");
    return 1;
  }
  std::fprintf(stderr, "lsra reduce: failing as %s: %s\n", O.Kind.c_str(),
               O.Detail.c_str());
  check::ReduceResult RR = check::reduceProgram(Text, Kind, Regs, Cleanup);
  std::fprintf(stderr, "lsra reduce: %u -> %u instructions in %u rounds\n",
               RR.OriginalInstrs, RR.FinalInstrs, RR.Rounds);
  if (OutFile.empty()) {
    std::fputs(RR.Text.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(OutFile);
  Out << RR.Text;
  if (!Out.good()) {
    std::fprintf(stderr, "lsra: cannot write '%s'\n", OutFile.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "serve")
    return cmdServe(argc - 2, argv + 2);
  if (Cmd == "loadgen")
    return cmdLoadgen(argc - 2, argv + 2);
  if (Cmd == "stats")
    return cmdStats(argc - 2, argv + 2);
  if (Cmd == "top")
    return cmdTop(argc - 2, argv + 2);
  if (Cmd == "fuzz")
    return cmdFuzz(argc - 2, argv + 2);
  if (argc < 3)
    return usage();
  std::string Input = argv[2];
  if (Cmd == "print")
    return cmdPrint(Input);
  if (Cmd == "dot")
    return cmdDot(Input, argc > 3 ? argv[3] : nullptr);
  if (Cmd == "run")
    return cmdRun(Input, argc - 3, argv + 3);
  if (Cmd == "compare")
    return cmdCompare(Input, argc - 3, argv + 3);
  if (Cmd == "reduce")
    return cmdReduce(Input, argc - 3, argv + 3);
  return usage();
}
