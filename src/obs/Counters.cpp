//===- obs/Counters.cpp ---------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"

#include "obs/Metrics.h"
#include "regalloc/Allocator.h"
#include "support/AllocProfile.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>

using namespace lsra;
using namespace lsra::obs;

struct CounterRegistry::Entry {
  std::string Name;
  enum class Kind { Count, Hist, Gauge } K;
  Counter C;
  /// Lazily allocated (a WindowedHistogram is a few hundred KB; most
  /// entries are plain counters).
  std::unique_ptr<WindowedHistogram> H;
  obs::Gauge G;
};

CounterRegistry &CounterRegistry::global() {
  static CounterRegistry R;
  return R;
}

CounterRegistry::Entry &CounterRegistry::entry(const std::string &Name,
                                               int Kind) {
  std::lock_guard<std::mutex> L(Mu);
  for (auto &E : Entries) {
    if (E->Name == Name) {
      // First registration wins: a name keeps the kind it was created
      // with, so a later accessor of a different kind cannot flip how the
      // entry is reported mid-run.
      if (static_cast<Entry::Kind>(Kind) == Entry::Kind::Hist && !E->H)
        E->H = std::make_unique<WindowedHistogram>();
      return *E;
    }
  }
  Entries.push_back(std::make_unique<Entry>());
  Entries.back()->Name = Name;
  Entries.back()->K = static_cast<Entry::Kind>(Kind);
  if (Entries.back()->K == Entry::Kind::Hist)
    Entries.back()->H = std::make_unique<WindowedHistogram>();
  return *Entries.back();
}

Counter &CounterRegistry::counter(const std::string &Name) {
  return entry(Name, static_cast<int>(Entry::Kind::Count)).C;
}

WindowedHistogram &CounterRegistry::histogram(const std::string &Name) {
  return *entry(Name, static_cast<int>(Entry::Kind::Hist)).H;
}

obs::Gauge &CounterRegistry::gauge(const std::string &Name) {
  return entry(Name, static_cast<int>(Entry::Kind::Gauge)).G;
}

void CounterRegistry::recordAllocStats(const AllocStats &S) {
  counter("alloc.evict_loads").add(S.EvictLoads);
  counter("alloc.evict_stores").add(S.EvictStores);
  counter("alloc.evict_moves").add(S.EvictMoves);
  counter("alloc.resolve_loads").add(S.ResolveLoads);
  counter("alloc.resolve_stores").add(S.ResolveStores);
  counter("alloc.resolve_moves").add(S.ResolveMoves);
  counter("alloc.static_spill_instrs").add(S.staticSpillInstrs());
  counter("alloc.reg_candidates").add(S.RegCandidates);
  counter("alloc.spilled_temps").add(S.SpilledTemps);
  counter("alloc.lifetime_splits").add(S.LifetimeSplits);
  counter("alloc.moves_coalesced").add(S.MovesCoalesced);
  counter("alloc.split_edges").add(S.SplitEdges);
  counter("alloc.dataflow_iterations").add(S.DataflowIterations);
  counter("alloc.coloring_iterations").add(S.ColoringIterations);
  counter("alloc.interference_edges").add(S.InterferenceEdges);
  histogram("alloc.time.cpu_us").record(secondsToUs(S.AllocSeconds));
  histogram("alloc.time.wall_us").record(secondsToUs(S.WallSeconds));
}

void CounterRegistry::recordAllocProfile() {
  AllocSnapshot S = allocSnapshot();
  counter("alloc.count").add(S.Count);
  counter("alloc.bytes").add(S.Bytes);
}

void CounterRegistry::recordRunStats(const RunStats &S) {
  counter("vm.runs").add(1);
  counter("vm.dyn.instrs").add(S.Total);
  counter("vm.dyn.cycles").add(S.Cycles);
  counter("vm.dyn.spill_loads")
      .add(S.kind(SpillKind::EvictLoad) + S.kind(SpillKind::ResolveLoad));
  counter("vm.dyn.spill_stores")
      .add(S.kind(SpillKind::EvictStore) + S.kind(SpillKind::ResolveStore));
  counter("vm.dyn.spill_moves")
      .add(S.kind(SpillKind::EvictMove) + S.kind(SpillKind::ResolveMove));
  counter("vm.dyn.spill_instrs").add(S.spillInstrs());
  counter("vm.dyn.callee_save_instrs")
      .add(S.kind(SpillKind::CalleeSave) + S.kind(SpillKind::CalleeRestore));
}

MetricsSnapshot CounterRegistry::metricsSnapshot() const {
  MetricsSnapshot Out;
  Out.UnixMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
  std::lock_guard<std::mutex> L(Mu);
  std::vector<const Entry *> Sorted;
  for (const auto &E : Entries)
    Sorted.push_back(E.get());
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Entry *A, const Entry *B) { return A->Name < B->Name; });
  for (const Entry *E : Sorted) {
    switch (E->K) {
    case Entry::Kind::Count:
      Out.Counters.emplace_back(E->Name, E->C.value());
      break;
    case Entry::Kind::Gauge:
      Out.Gauges.emplace_back(E->Name, E->G.value());
      break;
    case Entry::Kind::Hist: {
      MetricsSnapshot::HistEntry H;
      H.Name = E->Name;
      // Windows are read before the lifetime view: samples recorded
      // between the two reads inflate only the lifetime counts, keeping
      // the "window count <= lifetime count" invariant intact.
      H.W1 = E->H->windowSnapshot(1);
      H.W10 = E->H->windowSnapshot(10);
      H.W60 = E->H->windowSnapshot(60);
      H.Life = E->H->snapshot();
      Out.Hists.push_back(std::move(H));
      break;
    }
    }
  }
  return Out;
}

void CounterRegistry::reset() {
  std::lock_guard<std::mutex> L(Mu);
  Entries.clear();
}
