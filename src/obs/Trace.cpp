//===- obs/Trace.cpp ------------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <fstream>
#include <ostream>

using namespace lsra;
using namespace lsra::obs;

void ScopedSpan::finish() {
  int64_t DurNs = steadyNowNs() - StartNs;
  if (RT)
    RT->addPhase(Name_, StartNs, DurNs);
  if (Tracing)
    Tracer::global().complete(std::move(Name_), Cat_, StartNs, DurNs);
}

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

void Tracer::enable() {
  std::lock_guard<std::mutex> L(Mu);
  if (!EpochSet) {
    EpochNs = steadyNowNs();
    EpochSet = true;
  }
  Enabled.store(true, std::memory_order_release);
}

void Tracer::disable() { Enabled.store(false, std::memory_order_release); }

Tracer::ThreadBuf &Tracer::localBuf() {
  // One buffer per (thread, tracer generation). The cache is invalidated by
  // reset() bumping Generation; the tracer owns the buffers, so a worker
  // thread exiting (pool teardown) never loses events.
  struct Cache {
    Tracer *T = nullptr;
    uint64_t Gen = 0;
    ThreadBuf *B = nullptr;
  };
  static thread_local Cache C;
  uint64_t Gen = Generation.load(std::memory_order_acquire);
  if (C.T == this && C.Gen == Gen && C.B)
    return *C.B;
  auto Buf = std::make_unique<ThreadBuf>();
  ThreadBuf *Raw = Buf.get();
  {
    std::lock_guard<std::mutex> L(Mu);
    Buf->Tid = NextTid++;
    Buffers.push_back(std::move(Buf));
  }
  C = {this, Gen, Raw};
  return *Raw;
}

void Tracer::complete(std::string Name, const char *Cat, int64_t StartNs,
                      int64_t DurNs) {
  ThreadBuf &B = localBuf();
  std::lock_guard<std::mutex> L(B.Mu);
  B.Events.push_back({std::move(Name), Cat, StartNs, DurNs, B.Tid});
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> Out;
  {
    std::lock_guard<std::mutex> L(Mu);
    for (const auto &B : Buffers) {
      std::lock_guard<std::mutex> BL(B->Mu);
      Out.insert(Out.end(), B->Events.begin(), B->Events.end());
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     if (A.StartNs != B.StartNs)
                       return A.StartNs < B.StartNs;
                     return A.DurNs > B.DurNs; // parent before child
                   });
  return Out;
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::vector<TraceEvent> Events = snapshot();
  std::vector<SpanSummary> Out;
  for (const TraceEvent &E : Events) {
    auto It = std::find_if(Out.begin(), Out.end(), [&](const SpanSummary &S) {
      return S.Name == E.Name;
    });
    if (It == Out.end())
      Out.push_back({E.Name, E.Cat, 1, E.DurNs});
    else {
      ++It->Count;
      It->TotalNs += E.DurNs;
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const SpanSummary &A, const SpanSummary &B) {
                     return A.TotalNs > B.TotalNs;
                   });
  return Out;
}

void Tracer::writeChromeJson(std::ostream &OS) const {
  std::vector<TraceEvent> Events = snapshot();
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool First = true;
  for (const TraceEvent &E : Events) {
    if (!First)
      OS << ",\n";
    First = false;
    JsonObject O;
    O.field("name", E.Name)
        .field("cat", E.Cat)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", static_cast<uint64_t>(E.Tid))
        .field("ts", static_cast<double>(E.StartNs - EpochNs) / 1000.0)
        .field("dur", static_cast<double>(E.DurNs) / 1000.0);
    OS << "  " << O.str();
  }
  OS << "\n]}\n";
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  writeChromeJson(OS);
  return OS.good();
}

void Tracer::reset() {
  std::lock_guard<std::mutex> L(Mu);
  Generation.fetch_add(1, std::memory_order_acq_rel);
  Buffers.clear();
  NextTid = 0;
}
