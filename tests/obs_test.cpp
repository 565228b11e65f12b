//===- tests/obs_test.cpp -------------------------------------------------===//
//
// Part of the lsra project (PLDI 1998 linear-scan reproduction).
//
// The observability layer's contracts: spans nest correctly under
// multi-threaded allocation, counter snapshots are deterministic across
// thread counts, the decision log replays identically for the same module
// and seed, and the emitted trace/stats JSON parses.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "obs/Counters.h"
#include "obs/DecisionLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "workloads/SyntheticModule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace lsra;

namespace {

// --- A minimal JSON parser (values only, no escapes beyond the emitter's) ---

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  const JsonValue *get(const std::string &Key) const {
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &S) : S(S) {}

  bool parse(JsonValue &Out) {
    bool Ok = value(Out);
    skipWs();
    return Ok && Pos == S.size();
  }

private:
  const std::string &S;
  size_t Pos = 0;

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  bool lit(const char *L, JsonValue &V, JsonValue::Kind K, bool B) {
    size_t N = std::char_traits<char>::length(L);
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    V.K = K;
    V.B = B;
    return true;
  }
  bool value(JsonValue &V) {
    skipWs();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{')
      return object(V);
    if (C == '[')
      return array(V);
    if (C == '"')
      return string(V);
    if (C == 't')
      return lit("true", V, JsonValue::Bool, true);
    if (C == 'f')
      return lit("false", V, JsonValue::Bool, false);
    if (C == 'n')
      return lit("null", V, JsonValue::Null, false);
    return number(V);
  }
  bool object(JsonValue &V) {
    V.K = JsonValue::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Key, Val;
      skipWs();
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return false;
      ++Pos;
      if (!value(Val))
        return false;
      V.Obj[Key.Str] = std::move(Val);
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool array(JsonValue &V) {
    V.K = JsonValue::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Elem;
      if (!value(Elem))
        return false;
      V.Arr.push_back(std::move(Elem));
      skipWs();
      if (Pos >= S.size())
        return false;
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool string(JsonValue &V) {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    V.K = JsonValue::String;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        switch (S[Pos]) {
        case 'n':
          V.Str.push_back('\n');
          break;
        case 't':
          V.Str.push_back('\t');
          break;
        case 'r':
          V.Str.push_back('\r');
          break;
        case 'u':
          Pos += 4; // emitter only produces \u00xx for control chars
          V.Str.push_back('?');
          break;
        default:
          V.Str.push_back(S[Pos]);
        }
      } else {
        V.Str.push_back(S[Pos]);
      }
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // closing quote
    return true;
  }
  bool number(JsonValue &V) {
    size_t Start = Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) || S[Pos] == '-' ||
            S[Pos] == '+' || S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E'))
      ++Pos;
    if (Pos == Start)
      return false;
    V.K = JsonValue::Number;
    V.Num = std::stod(S.substr(Start, Pos - Start));
    return true;
  }
};

bool parseJson(const std::string &Text, JsonValue &Out) {
  return JsonParser(Text).parse(Out);
}

// --- Fixtures ---------------------------------------------------------------

std::unique_ptr<Module> makeWorkload() {
  ScaledModuleOptions SO;
  SO.NumProcs = 5;
  SO.CandidatesPerProc = 120;
  SO.LiveWindow = 30;
  SO.BlocksPerProc = 6;
  SO.Seed = 7;
  return buildScaledModule(SO);
}

/// A register file small enough that the workload must spill: every
/// decision kind the binpack scanner can take actually fires.
TargetDesc tightTarget() {
  return TargetDesc::alphaLike().withRegLimit(4, 4);
}

AllocStats compileWith(unsigned Threads, const TargetDesc &TD,
                       AllocatorKind K = AllocatorKind::SecondChanceBinpack) {
  auto M = makeWorkload();
  ExecOptions Exec;
  Exec.Threads = Threads;
  return compileModule(*M, TD, K, {}, Exec);
}

/// Reset all three global sinks to a pristine, disabled state.
void resetObs() {
  obs::Tracer::global().disable();
  obs::Tracer::global().reset();
  obs::CounterRegistry::global().disable();
  obs::CounterRegistry::global().reset();
  obs::DecisionLog::global().disable();
  obs::DecisionLog::global().reset();
}

class ObsTest : public ::testing::Test {
protected:
  void SetUp() override { resetObs(); }
  void TearDown() override { resetObs(); }
};

// --- Tracer -----------------------------------------------------------------

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  {
    obs::ScopedSpan S("should-not-appear", "pass");
  }
  compileWith(1, TargetDesc::alphaLike());
  EXPECT_TRUE(obs::Tracer::global().snapshot().empty());
}

TEST_F(ObsTest, SpansNestUnderParallelAllocation) {
  obs::Tracer &T = obs::Tracer::global();
  T.enable();
  compileWith(4, tightTarget());
  T.disable();
  std::vector<obs::TraceEvent> Events = T.snapshot();
  ASSERT_FALSE(Events.empty());

  // The per-pass and per-phase spans must all be present.
  auto Has = [&](const std::string &Name) {
    return std::any_of(Events.begin(), Events.end(),
                       [&](const obs::TraceEvent &E) { return E.Name == Name; });
  };
  EXPECT_TRUE(Has("lowerCalls"));
  EXPECT_TRUE(Has("dce"));
  EXPECT_TRUE(Has("liveness"));
  EXPECT_TRUE(Has("lifetimes"));
  EXPECT_TRUE(Has("scan"));
  EXPECT_TRUE(Has("binpack.scan"));
  EXPECT_TRUE(Has("binpack.resolution"));

  // Within each thread, spans are properly nested: any two are disjoint or
  // one contains the other (the trace_event format's per-tid stacking rule).
  for (size_t I = 0; I < Events.size(); ++I)
    for (size_t J = I + 1; J < Events.size(); ++J) {
      const obs::TraceEvent &A = Events[I], &B = Events[J];
      if (A.Tid != B.Tid)
        continue;
      int64_t AEnd = A.StartNs + A.DurNs, BEnd = B.StartNs + B.DurNs;
      bool Disjoint = AEnd <= B.StartNs || BEnd <= A.StartNs;
      bool AInB = A.StartNs >= B.StartNs && AEnd <= BEnd;
      bool BInA = B.StartNs >= A.StartNs && BEnd <= AEnd;
      EXPECT_TRUE(Disjoint || AInB || BInA)
          << A.Name << " [" << A.StartNs << "," << AEnd << ") vs " << B.Name
          << " [" << B.StartNs << "," << BEnd << ") on tid " << A.Tid;
    }
}

TEST_F(ObsTest, ChromeTraceJsonParses) {
  obs::Tracer &T = obs::Tracer::global();
  T.enable();
  compileWith(2, tightTarget());
  T.disable();
  std::ostringstream OS;
  T.writeChromeJson(OS);

  JsonValue Doc;
  ASSERT_TRUE(parseJson(OS.str(), Doc)) << OS.str().substr(0, 400);
  ASSERT_EQ(Doc.K, JsonValue::Object);
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Array);
  ASSERT_FALSE(Events->Arr.empty());
  for (const JsonValue &E : Events->Arr) {
    ASSERT_EQ(E.K, JsonValue::Object);
    const JsonValue *Ph = E.get("ph");
    ASSERT_NE(Ph, nullptr);
    EXPECT_EQ(Ph->Str, "X");
    ASSERT_NE(E.get("name"), nullptr);
    ASSERT_NE(E.get("ts"), nullptr);
    EXPECT_EQ(E.get("ts")->K, JsonValue::Number);
    EXPECT_GE(E.get("ts")->Num, 0.0); // relative to the tracer's epoch
    ASSERT_NE(E.get("dur"), nullptr);
    EXPECT_GE(E.get("dur")->Num, 0.0);
    ASSERT_NE(E.get("tid"), nullptr);
  }
}

// One span, two sinks: the Chrome tracer and a request trace see the same
// interval (one clock read at each end), and re-emitting the request trace
// into the tracer keeps its absolute times.
TEST_F(ObsTest, SpanFeedsTracerAndRequestTraceOneInterval) {
  obs::Tracer &T = obs::Tracer::global();
  obs::RequestTrace RT;
  RT.RequestId = 7;
  T.enable();
  { obs::ScopedSpan S("parse", "pass", &RT); }
  std::vector<obs::RequestTrace::Phase> Phases = RT.phases();
  RT.emitToTracer();
  T.disable();

  ASSERT_EQ(Phases.size(), 1u);
  EXPECT_EQ(Phases[0].Name, "parse");
  std::vector<obs::TraceEvent> Events = T.snapshot();
  ASSERT_EQ(Events.size(), 2u);
  for (const obs::TraceEvent &E : Events) {
    EXPECT_TRUE(E.Name == "parse" || E.Name == "req:7:parse") << E.Name;
    EXPECT_EQ(E.StartNs, Phases[0].StartNs) << E.Name;
    EXPECT_EQ(E.DurNs, Phases[0].DurNs) << E.Name;
  }
}

// --- Counter registry -------------------------------------------------------

/// The registry's metrics snapshot as text, minus its capture time and the
/// inherently run-to-run "alloc.time.*" histograms.
std::string filteredSnapshot() {
  obs::MetricsSnapshot S = obs::CounterRegistry::global().metricsSnapshot();
  std::ostringstream OS;
  for (const auto &[Name, V] : S.Counters)
    OS << "counter " << Name << " " << V << "\n";
  for (const auto &[Name, V] : S.Gauges)
    OS << "gauge " << Name << " " << V << "\n";
  for (const obs::MetricsSnapshot::HistEntry &H : S.Hists)
    if (H.Name.find("alloc.time.") == std::string::npos)
      OS << "hist " << H.Name << " " << H.Life.Count << " " << H.Life.Sum
         << " " << H.Life.Min << " " << H.Life.Max << "\n";
  return OS.str();
}

TEST_F(ObsTest, CounterSnapshotDeterministicAcrossThreadCounts) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  TargetDesc TD = tightTarget();

  CR.enable();
  CR.recordAllocStats(compileWith(1, TD));
  std::string Snap1 = filteredSnapshot();
  CR.reset();

  CR.recordAllocStats(compileWith(4, TD));
  std::string Snap4 = filteredSnapshot();

  EXPECT_FALSE(Snap1.empty());
  EXPECT_EQ(Snap1, Snap4);
  EXPECT_NE(Snap1.find("binpack.evictions"), std::string::npos);
  EXPECT_NE(Snap1.find("lifetime.holes"), std::string::npos);
  EXPECT_NE(Snap1.find("alloc.functions"), std::string::npos);
}

TEST_F(ObsTest, StatsDocumentParses) {
  obs::CounterRegistry &CR = obs::CounterRegistry::global();
  CR.enable();
  CR.recordAllocStats(compileWith(1, tightTarget()));
  obs::MetricsSnapshot S = CR.metricsSnapshot();
  for (size_t I = 1; I < S.Counters.size(); ++I)
    EXPECT_LT(S.Counters[I - 1].first, S.Counters[I].first)
        << "counters must be sorted by name";
  for (size_t I = 1; I < S.Hists.size(); ++I)
    EXPECT_LT(S.Hists[I - 1].Name, S.Hists[I].Name)
        << "histograms must be sorted by name";

  std::string Doc = S.toJson();
  JsonValue V;
  ASSERT_TRUE(parseJson(Doc, V)) << Doc.substr(0, 400);
  ASSERT_NE(V.get("schema"), nullptr);
  EXPECT_EQ(V.get("schema")->Num, 1);
  const JsonValue *Counters = V.get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GT(Counters->Obj.size(), 5u);
  for (const auto &[Name, C] : Counters->Obj)
    EXPECT_EQ(C.K, JsonValue::Number) << Name;
  // The timing samples are histograms whose names carry the unit.
  const JsonValue *Hists = V.get("histograms");
  ASSERT_NE(Hists, nullptr);
  for (const char *H :
       {"alloc.time.cpu_us", "alloc.time.function_us", "alloc.time.wall_us"}) {
    const JsonValue *E = Hists->get(H);
    ASSERT_NE(E, nullptr) << H;
    ASSERT_NE(E->get("life"), nullptr) << H;
    ASSERT_NE(E->get("life")->get("p99"), nullptr) << H;
    EXPECT_GT(E->get("life")->get("count")->Num, 0) << H;
  }
}

TEST_F(ObsTest, DisabledRegistryCostsNothing) {
  compileWith(1, tightTarget());
  obs::MetricsSnapshot S = obs::CounterRegistry::global().metricsSnapshot();
  EXPECT_TRUE(S.Counters.empty());
  EXPECT_TRUE(S.Gauges.empty());
  EXPECT_TRUE(S.Hists.empty());
}

// --- Decision log -----------------------------------------------------------

std::string explainText() {
  std::ostringstream OS;
  obs::DecisionLog::global().writeText(OS);
  return OS.str();
}

TEST_F(ObsTest, DecisionLogReplaysIdentically) {
  obs::DecisionLog &DL = obs::DecisionLog::global();
  TargetDesc TD = tightTarget();

  DL.enable();
  compileWith(1, TD);
  std::string First = explainText();
  DL.reset();

  compileWith(1, TD);
  std::string Second = explainText();
  DL.reset();

  compileWith(4, TD);
  std::string Parallel = explainText();

  ASSERT_FALSE(First.empty());
  EXPECT_EQ(First, Second) << "same module+seed must replay identically";
  EXPECT_EQ(First, Parallel) << "log order must not depend on thread count";
  // The tight register file forces second-chance splits, and every split
  // must be named in the log.
  EXPECT_NE(First.find("second-chance-load"), std::string::npos);
  EXPECT_NE(First.find("evict-store"), std::string::npos);
}

TEST_F(ObsTest, SecondChanceSplitsAllLogged) {
  obs::DecisionLog &DL = obs::DecisionLog::global();
  DL.enable();
  AllocStats S = compileWith(1, tightTarget());
  std::vector<obs::Decision> Log = DL.snapshot();
  unsigned Splits = 0;
  for (const obs::Decision &D : Log)
    if (obs::isLifetimeSplit(D.Kind))
      ++Splits;
  EXPECT_EQ(Splits, S.LifetimeSplits)
      << "every second-chance split must appear in the decision log";
}

TEST_F(ObsTest, DecisionJsonlParses) {
  obs::DecisionLog &DL = obs::DecisionLog::global();
  DL.enable();
  compileWith(1, tightTarget());
  std::ostringstream OS;
  DL.writeJsonl(OS);
  std::istringstream In(OS.str());
  std::string Line;
  unsigned N = 0;
  while (std::getline(In, Line)) {
    JsonValue V;
    ASSERT_TRUE(parseJson(Line, V)) << Line;
    ASSERT_NE(V.get("kind"), nullptr);
    EXPECT_EQ(V.get("kind")->Str, "decision");
    ASSERT_NE(V.get("fn"), nullptr);
    ASSERT_NE(V.get("event"), nullptr);
    ASSERT_NE(V.get("why"), nullptr);
    ++N;
  }
  EXPECT_GT(N, 0u);
}

TEST_F(ObsTest, DisabledDecisionLogRecordsNothing) {
  compileWith(1, tightTarget());
  EXPECT_TRUE(obs::DecisionLog::global().snapshot().empty());
}

// With every sink disabled, instrumentation must not change the allocation
// result: spot-check that statistics match a baseline compile.
TEST_F(ObsTest, SinksOffLeaveAllocationUnchanged) {
  TargetDesc TD = tightTarget();
  AllocStats Base = compileWith(1, TD);

  obs::Tracer::global().enable();
  obs::CounterRegistry::global().enable();
  obs::DecisionLog::global().enable();
  AllocStats Instrumented = compileWith(1, TD);
  resetObs();

  EXPECT_EQ(Base.staticSpillInstrs(), Instrumented.staticSpillInstrs());
  EXPECT_EQ(Base.SpilledTemps, Instrumented.SpilledTemps);
  EXPECT_EQ(Base.LifetimeSplits, Instrumented.LifetimeSplits);
  EXPECT_EQ(Base.MovesCoalesced, Instrumented.MovesCoalesced);
}

} // namespace
