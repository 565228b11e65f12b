//===- tests/ExactnessInputs.h - Programs for the exactness tests -*- C++ -*-===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//
//
// The inputs the analysis exactness tests compare the analyses against
// their brute-force references on: `lsra fuzz` programs 1-50 and the four
// Table 3 modules (options as in bench/table3_compiletime), calls lowered.
//
//===----------------------------------------------------------------------===//

#ifndef LSRA_TESTS_EXACTNESSINPUTS_H
#define LSRA_TESTS_EXACTNESSINPUTS_H

#include "check/Fuzz.h"
#include "target/LowerCalls.h"
#include "workloads/RandomProgram.h"
#include "workloads/SyntheticModule.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lsra {

inline std::vector<std::pair<std::string, std::unique_ptr<Module>>>
exactnessInputs() {
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> Out;
  check::FuzzOptions FO;
  for (uint64_t S = 1; S <= 50; ++S)
    Out.emplace_back("fuzz-" + std::to_string(S),
                     buildRandomProgram(S, FO.Program));
  const std::pair<const char *, ScaledModuleOptions> Table3[] = {
      {"cvrin-like", {4, 245, 8, 6, 11}},
      {"twldrv-like", {1, 6218, 48, 10, 22}},
      {"fpppp-like", {2, 3348, 56, 8, 33}},
      {"many-proc", {16, 500, 24, 6, 44}},
  };
  for (const auto &[Name, Opts] : Table3)
    Out.emplace_back(Name, buildScaledModule(Opts));
  for (auto &In : Out)
    lowerCalls(*In.second);
  return Out;
}

} // namespace lsra

#endif // LSRA_TESTS_EXACTNESSINPUTS_H
