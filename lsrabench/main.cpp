//===- lsrabench/main.cpp - Repository benchmark entry point --------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lsrabench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///           [--lsra PATH] [--workdir DIR] [--commit ID]
///
/// Runs one workload (corpus-cold, code-cold, fuzz-grid, serve-mix) for S
/// seconds, checks every output, prints the host record and every metric
/// by name and unit, and ends with one JSON line: the end-to-end metrics,
/// or with --trace 1 the per-layer metrics of a separately traced phase
/// (the layers this workload exercises; run.py completes the list from
/// BENCHMARK.json).
/// Exits nonzero when any output check failed.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

using namespace lsrabench;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(" \t", Colon + 1));
    }
  return "unknown";
}

/// Full precision for measured values; integers print without a fraction.
std::string num(double V) {
  char Buf[64];
  if (std::isfinite(V) && V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else if (std::isfinite(V))
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  else
    std::snprintf(Buf, sizeof(Buf), "0");
  return Buf;
}

bool takeValue(int Argc, char **Argv, int &I, const char *Flag,
               std::string &Out) {
  std::string A = Argv[I];
  std::string F = Flag;
  if (A == F && I + 1 < Argc) {
    Out = Argv[++I];
    return true;
  }
  if (A.rfind(F + "=", 0) == 0) {
    Out = A.substr(F.size() + 1);
    return true;
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: lsrabench --workload corpus-cold|code-cold|fuzz-grid|"
               "serve-mix [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--lsra PATH] [--workdir DIR] [--commit ID]\n"
               "  --seed defaults to %llu; confirm claims on seed %llu.\n",
               (unsigned long long)DefaultSeed,
               (unsigned long long)ConfirmSeed);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Commit = "unknown";
  for (int I = 1; I < Argc; ++I) {
    std::string V;
    if (takeValue(Argc, Argv, I, "--workload", V))
      O.Workload = V;
    else if (takeValue(Argc, Argv, I, "--seed", V))
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (takeValue(Argc, Argv, I, "--seconds", V))
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (takeValue(Argc, Argv, I, "--trace", V))
      O.Trace = V == "1";
    else if (takeValue(Argc, Argv, I, "--lsra", V))
      O.LsraTool = V;
    else if (takeValue(Argc, Argv, I, "--workdir", V))
      O.WorkDir = V;
    else if (takeValue(Argc, Argv, I, "--commit", V))
      Commit = V;
    else
      return usage();
  }
  if (O.Workload.empty() || !(O.Seconds > 0))
    return usage();

  std::printf("host {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s "
              "(%s)\", \"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              jsonEscape(cpuModel()).c_str(), LSRABENCH_CXX_ID,
              jsonEscape(__VERSION__).c_str(), LSRABENCH_BUILD_TYPE,
              jsonEscape(Commit).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0);
  std::fflush(stdout);

  Result R;
  int Rc;
  if (O.Workload == "serve-mix")
    Rc = runServe(O, R);
  else
    Rc = runOffline(O, R);
  if (Rc != 0)
    return Rc;

  for (const std::string &N : R.Notes)
    std::printf("  %s\n", N.c_str());
  auto PrintAll = [](const char *Title, const std::vector<Metric> &Ms) {
    std::printf("%s\n", Title);
    for (const Metric &M : Ms)
      std::printf("  %-40s %18s %-7s %s\n", M.Name.c_str(),
                  num(M.Value).c_str(), M.Unit.c_str(), M.Note.c_str());
  };
  PrintAll("end-to-end (untraced):", R.EndToEnd);
  if (O.Trace)
    PrintAll("per-layer (traced phase):", R.Layers);
  double FailRatio = R.Attempted ? static_cast<double>(R.Failed) /
                                       static_cast<double>(R.Attempted)
                                 : 1.0;
  std::printf("fail_ratio %s (%llu failed / %llu attempted)\n",
              num(FailRatio).c_str(), (unsigned long long)R.Failed,
              (unsigned long long)R.Attempted);
  for (const std::string &F : R.Failures)
    std::printf("FAILURE: %s\n", F.c_str());

  const std::vector<Metric> &Out = O.Trace ? R.Layers : R.EndToEnd;
  std::string J = "{\"correct\": ";
  J += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    if (I)
      J += ", ";
    J += "\"" + Out[I].Name + "\": {\"value\": " + num(Out[I].Value) +
         ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  return R.Failed == 0 && R.Attempted > 0 ? 0 : 1;
}
