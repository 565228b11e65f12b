//===- lsrabench/Report.cpp - Statistics and host helpers -----------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sys/resource.h>

namespace lsrabench {

void Result::fail(const std::string &What) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(What);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double tailPercentile(size_t N) {
  if (N < 20)
    return 50;
  // Highest whole-number percentile leaving at least ten samples above it.
  double P = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(N)));
  return std::max(P, 50.0);
}

double selfPeakRssMb() {
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double pidPeakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

void countLines(const std::string &Text, uint64_t &Lines, uint64_t &MemLines) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    ++Lines;
    if (Text.compare(Pos, 4, "mem ") == 0)
      ++MemLines;
    Pos = End + 1;
  }
}

} // namespace lsrabench
