//===- perfbench/Bench.cpp - steady funnel benchmark ------------------------===//
//
// One measurement process of the funnel benchmark; perfbench/run.py builds
// and drives it. Commands:
//
//   perfbench run --workload W --seed S --seconds T --trace 0|1 --work DIR
//       [--golden FILE]
//     Measures workload W (funnel-cold, funnel-warm, sample-passk) for at
//     least T seconds in whole rounds and prints one JSON object: the
//     end-to-end metrics (--trace 0) or the per-layer metrics of the traced
//     mirror run (--trace 1), plus correct/attempted/failed and notes.
//   perfbench prefill --seed S --work DIR
//     funnel-warm's untimed cold pre-pass: fills the store in DIR and
//     records each outcome's debugString for the warm replay to match.
//   perfbench golden --golden FILE [--pick N --seed S] [--write]
//     Runs Pipeline pairs at the golden seed -- all 149, or N drawn by S --
//     and compares them with (or, with --write, rewrites) the golden.
//
// Every request goes through svc::VectorizerService. The traced run
// re-executes the same requests by calling each layer's public functions
// from this file, with a timer around every call; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "agents/Fsm.h"
#include "deps/Analysis.h"
#include "interp/Checksum.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "store/Store.h"
#include "support/Rng.h"
#include "vir/Compile.h"
#include "vir/Lower.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

using namespace lv;
using namespace lv::perfbench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Options and output
//===----------------------------------------------------------------------===//

struct Options {
  std::string Command;
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Work = ".bench_build/work";
  std::string Golden;
  bool WriteGolden = false;
  size_t Pick = 0; ///< golden: check this many pairs drawn by seed (0: all).
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  if (Argc < 2)
    return false;
  O.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--write") {
      O.WriteGolden = true;
      continue;
    }
    if (!(V = Next()))
      return false;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 0);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::atoi(V) != 0;
    else if (A == "--work")
      O.Work = V;
    else if (A == "--golden")
      O.Golden = V;
    else if (A == "--pick")
      O.Pick = std::strtoull(V, nullptr, 10);
    else
      return false;
  }
  return true;
}

struct Metric {
  std::string Name, Unit;
  double Value = 0;
};

/// The result object one process prints; run.py adds peak_rss_mb and
/// re-emits it as the benchmark's last line.
struct Report {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;

  void add(const std::string &Name, const std::string &Unit, double V) {
    Metrics.push_back({Name, Unit, std::isfinite(V) ? V : 0.0});
  }
  void fail(const std::string &Why) {
    ++Failed;
    Notes.push_back(Why);
  }
};

std::string jsonString(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\', O += C;
    else if (C == '\n')
      O += "\\n";
    else if (static_cast<unsigned char>(C) < 0x20)
      O += ' ';
    else
      O += C;
  }
  return O + "\"";
}

void printReport(const Report &R) {
  std::string S = "{\"correct\": ";
  S += R.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(R.Attempted);
  S += ", \"failed\": " + std::to_string(R.Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.10g", R.Metrics[I].Value);
    S += (I ? ", " : "") + jsonString(R.Metrics[I].Name) +
         ": {\"value\": " + Num + ", \"unit\": " +
         jsonString(R.Metrics[I].Unit) + "}";
  }
  S += "}, \"notes\": [";
  for (size_t I = 0; I < R.Notes.size(); ++I)
    S += (I ? ", " : "") + jsonString(R.Notes[I]);
  S += "]}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

uint64_t dirBytes(const std::string &Dir) {
  uint64_t N = 0;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      N += E.file_size(EC);
  return N;
}

//===----------------------------------------------------------------------===//
// Service rounds (the measured path)
//===----------------------------------------------------------------------===//

/// One fresh service over one request batch.
struct Round {
  std::vector<svc::Request> Reqs;
  std::vector<svc::Outcome> Outs;
  double SetupS = 0;     ///< Service (and store) construction.
  double WallS = 0;      ///< First submit to last completion.
  double QueueWaitS = 0; ///< Summed over tasks: observed completion minus
                         ///< submit minus the task's own wall.
  svc::CacheStats Cache;
  store::StoreStats Store;
  uint64_t LogBytes = 0;
};

Round runRound(std::vector<svc::Request> Reqs, int Workers,
               const std::string &StoreDir) {
  Round R;
  svc::ServiceConfig SC;
  SC.Workers = Workers;
  SC.StorePath = StoreDir;
  Clock::time_point T0 = Clock::now();
  auto S = std::make_unique<svc::VectorizerService>(SC);
  R.SetupS = secondsSince(T0);
  Clock::time_point T1 = Clock::now();
  std::vector<svc::Ticket> Tickets = S->submitBatch(Reqs);
  std::vector<const svc::Outcome *> Done;
  std::vector<double> Seen;
  for (svc::Ticket T : Tickets) {
    Done.push_back(&S->wait(T));
    Seen.push_back(secondsSince(T1));
  }
  R.WallS = secondsSince(T1);
  for (size_t I = 0; I < Done.size(); ++I)
    R.QueueWaitS += std::max(0.0, Seen[I] - Done[I]->WallNanos / 1e9);
  for (const svc::Outcome *O : Done)
    R.Outs.push_back(*O);
  R.Cache = S->cacheStats();
  if (store::ResultStore *St = S->resultStore())
    R.Store = St->stats();
  S.reset(); // flushes and closes the store
  if (!StoreDir.empty())
    R.LogBytes = dirBytes(StoreDir);
  R.Reqs = std::move(Reqs);
  return R;
}

/// Times one construction of a service without a store.
double serviceSetup(int Workers) {
  svc::ServiceConfig SC;
  SC.Workers = Workers;
  Clock::time_point T0 = Clock::now();
  auto S = std::make_unique<svc::VectorizerService>(SC);
  return secondsSince(T0);
}

/// Leaves an empty store in \p Dir: its directory and header-only log
/// exist, so a service constructed over it opens the store rather than
/// creating it. Creating a directory and a file costs whatever the host's
/// file system charges that minute: in back-to-back constructions, the
/// per-process median of those that created the store ranged 64-89 us,
/// of those that opened it 23-25 us.
void makeEmptyStore(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  store::ResultStore Fresh(Dir);
}

//===----------------------------------------------------------------------===//
// End-to-end metrics
//===----------------------------------------------------------------------===//

struct EndToEnd {
  size_t Tasks = 0;
  double WallS = 0;
  std::vector<double> RoundRates; ///< Tasks per second of each round.
  std::vector<double> LatencyMs;
  size_t Accepted = 0, AcceptBase = 0;
  size_t Decided = 0, DecidedBase = 0;
  std::vector<double> SetupS;
  std::vector<double> Speedups;
};

void tallyRound(const Round &R, EndToEnd &E) {
  E.Tasks += R.Outs.size();
  E.WallS += R.WallS;
  E.RoundRates.push_back(R.Outs.size() / R.WallS);
}

void tallyFunnel(const Round &R, EndToEnd &E) {
  tallyRound(R, E);
  for (const svc::Outcome &O : R.Outs) {
    ++E.AcceptBase;
    if (!O.VerifyRan)
      continue;
    E.LatencyMs.push_back(O.WallNanos / 1e6);
    ++E.DecidedBase;
    if (O.Equiv.Final == core::EquivResult::Equivalent)
      ++E.Accepted;
    if (O.Equiv.Final == core::EquivResult::Equivalent ||
        O.Equiv.Final == core::EquivResult::Inequivalent)
      ++E.Decided;
  }
}

bool vectorized(const svc::SampleVerdict &V) {
  return V.Compiles && V.Source.find("_mm256_") != std::string::npos;
}

void tallySample(const Round &R, EndToEnd &E) {
  tallyRound(R, E);
  for (const svc::Outcome &O : R.Outs) {
    E.LatencyMs.push_back(O.WallNanos / 1e6);
    for (const svc::SampleVerdict &V : O.Samples) {
      ++E.AcceptBase;
      ++E.DecidedBase;
      E.Accepted += V.Plausible;
      E.Decided += vectorized(V);
    }
  }
}

double geomean(const std::vector<double> &V) {
  double L = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0)
      L += std::log(X), ++N;
  return N ? std::exp(L / N) : 0;
}

void emitEndToEnd(const EndToEnd &E, Report &Rep) {
  Rep.add("tasks_per_s", "1/s", E.WallS > 0 ? E.Tasks / E.WallS : 0);
  Rep.add("task_p50_ms", "ms", hdQuantile(E.LatencyMs, 0.5));
  Tail T = tailOf(E.LatencyMs);
  if (!T.Ok)
    Rep.fail("task_tail_ms: fewer than 20 latency samples");
  Rep.add("task_tail_ms", "ms", T.Value);
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "task_tail_ms is p%.0f of %zu latency samples (ms: p50 %.4g "
                "p75 %.4g p90 %.4g, Harrell-Davis)",
                T.Percentile, E.LatencyMs.size(), hdQuantile(E.LatencyMs, .5),
                hdQuantile(E.LatencyMs, .75), hdQuantile(E.LatencyMs, .9));
  Rep.Notes.push_back(Buf);
  if (E.LatencyMs.size() <= 64) {
    std::string All = "latency samples (ms):";
    for (double L : E.LatencyMs)
      All += " " + std::to_string(L);
    Rep.Notes.push_back(All);
  }
  std::vector<double> Rates = E.RoundRates;
  std::sort(Rates.begin(), Rates.end());
  std::snprintf(Buf, sizeof(Buf),
                "%zu rounds: tasks/s per round min %.4g median %.4g max %.4g",
                Rates.size(), Rates.front(), median(Rates), Rates.back());
  Rep.Notes.push_back(Buf);
  Rep.add("accept_frac", "fraction",
          E.AcceptBase ? double(E.Accepted) / E.AcceptBase : 0);
  Rep.add("decided_frac", "fraction",
          E.DecidedBase ? double(E.Decided) / E.DecidedBase : 0);
  Rep.add("vec_speedup_geomean", "x", geomean(E.Speedups));
  Rep.add("setup_s", "s", median(E.SetupS));
  std::vector<double> Setups = E.SetupS;
  std::sort(Setups.begin(), Setups.end());
  std::snprintf(Buf, sizeof(Buf),
                "setup_s over %zu constructions (us): min %.4g p10 %.4g "
                "median %.4g p90 %.4g",
                Setups.size(), Setups.front() * 1e6,
                Setups[Setups.size() / 10] * 1e6, median(Setups) * 1e6,
                Setups[Setups.size() * 9 / 10] * 1e6);
  Rep.Notes.push_back(Buf);
}

void funnelSpeedups(const Round &R, EndToEnd &E) {
  for (size_t I = 0; I < R.Outs.size(); ++I)
    if (R.Outs[I].verified())
      E.Speedups.push_back(speedupOverBestBaseline(
          R.Reqs[I].ScalarSource, R.Outs[I].Fsm.FinalCandidate));
}

void sampleSpeedups(const Round &R, EndToEnd &E) {
  for (size_t I = 0; I < R.Outs.size(); ++I)
    for (const svc::SampleVerdict &V : R.Outs[I].Samples)
      if (V.Plausible) {
        E.Speedups.push_back(
            speedupOverBestBaseline(R.Reqs[I].ScalarSource, V.Source));
        break;
      }
}

//===----------------------------------------------------------------------===//
// Correctness checks
//===----------------------------------------------------------------------===//

/// Sample-mode oracle: every distinct completion is re-classified on the
/// single-candidate path (vir::compileFunction + interp::runChecksumTest),
/// independent of the service's batch path, cache, and store.
size_t sampleOracle(const Round &R, Report &Rep) {
  size_t Bad = 0;
  for (size_t I = 0; I < R.Outs.size(); ++I) {
    const svc::Outcome &O = R.Outs[I];
    const svc::Request &Q = R.Reqs[I];
    if (O.Failed) {
      Rep.Notes.push_back(O.Name + ": task failed: " + O.Error);
      ++Bad;
      continue;
    }
    if (O.Samples.size() != static_cast<size_t>(Q.SampleCount)) {
      Rep.Notes.push_back(O.Name + ": wrong sample count");
      ++Bad;
      continue;
    }
    vir::CompileResult S = vir::compileFunction(Q.ScalarSource);
    std::set<std::string> Seen;
    for (const svc::SampleVerdict &V : O.Samples) {
      if (!Seen.insert(V.Source).second)
        continue;
      vir::CompileResult C = vir::compileFunction(V.Source);
      bool Plausible = false;
      if (C.ok() && S.ok() && V.Source.find("_mm256_") != std::string::npos)
        Plausible =
            interp::runChecksumTest(*S.Fn, *C.Fn, Q.Fsm.Checksum).plausible();
      if (C.ok() != V.Compiles || Plausible != V.Plausible) {
        Rep.Notes.push_back(O.Name + ": sample classification differs from "
                                     "the single-candidate path");
        ++Bad;
      }
    }
  }
  return Bad;
}

std::map<std::string, GoldenVerdict> loadGolden(const std::string &Path,
                                                Report &Rep) {
  std::map<std::string, GoldenVerdict> G;
  std::string Text, Err;
  if (!readFile(Path, Text))
    Rep.fail("cannot read the verdict golden " + Path);
  else if (!parseGolden(Text, G, Err))
    Rep.fail("verdict golden " + Path + ": " + Err);
  return G;
}

/// Checks golden pairs: the whole suite when \p Count is 0, else \p Count
/// tests drawn by \p Seed. Flips and oracle violations count as failures.
void checkGolden(const std::string &Path, uint64_t Seed, size_t Count,
                 int Workers, Report &Rep) {
  std::map<std::string, GoldenVerdict> G = loadGolden(Path, Rep);
  std::vector<svc::Request> All = suiteRequests(GoldenSeed), Reqs;
  if (Count == 0) {
    Reqs = All;
  } else {
    Rng R(hashCombine(Seed, 0x601DE));
    // Only decided entries can flip, so only they are drawn.
    std::vector<size_t> Decided;
    for (size_t I = 0; I < All.size(); ++I) {
      auto It = G.find(All[I].Name);
      if (It != G.end() &&
          (It->second.Final ==
               core::outcomeName(core::EquivResult::Equivalent) ||
           It->second.Final ==
               core::outcomeName(core::EquivResult::Inequivalent)))
        Decided.push_back(I);
    }
    std::set<size_t> Pick;
    while (Pick.size() < std::min(Count, Decided.size()))
      Pick.insert(Decided[R.below(Decided.size())]);
    for (size_t I : Pick)
      Reqs.push_back(All[I]);
  }
  Round Rd = runRound(Reqs, Workers, "");
  Rep.Attempted += Rd.Outs.size();
  std::string Names;
  for (const svc::Outcome &O : Rd.Outs) {
    Names += " " + O.Name;
    auto It = G.find(O.Name);
    if (It == G.end()) {
      if (!G.empty())
        Rep.fail("golden has no entry for " + O.Name);
      continue;
    }
    if (goldenFlip(O.Name, It->second, goldenOf(O), Rep.Notes))
      ++Rep.Failed;
  }
  Rep.Notes.push_back("golden checked:" + Names);
  Rep.Failed += oracleViolations(Rd.Reqs, Rd.Outs, Seed, Rep.Notes);
}

//===----------------------------------------------------------------------===//
// Traced mirror run
//===----------------------------------------------------------------------===//

/// Per-layer tallies of the traced run. Times are seconds of wall spent
/// inside calls into the named layer's public functions.
struct Layers {
  double LlmS = 0;
  uint64_t LlmCalls = 0;
  double ParseS = 0, SemaS = 0, LowerS = 0;
  uint64_t SrcBytes = 0, Compiles = 0, CompileFails = 0;
  double InterpS = 0;
  uint64_t Instrs = 0, ScalarRuns = 0, ScalarRunsSaved = 0;
  double AgentsSelfS = 0, DepsS = 0;
  uint64_t FsmTasks = 0, Attempts = 0, FsmPlausible = 0;
  double StoreS = 0;
  double Alive2S = 0, CUnrollS = 0, SplitS = 0, EncodeS = 0;
  uint64_t DecAlive2 = 0, DecCUnroll = 0, DecSplit = 0;
  uint64_t Queries = 0, QueryDecided = 0, Terms = 0, Clauses = 0, Vars = 0;
  uint64_t Conflicts = 0, Props = 0, PortfolioQueries = 0, FastWins = 0;
  uint64_t Memouts = 0;
  double TaskS = 0; ///< Mirror task wall, probes excluded.
  std::vector<std::string> Mismatches;

  void add(const Layers &O) {
    LlmS += O.LlmS, LlmCalls += O.LlmCalls;
    ParseS += O.ParseS, SemaS += O.SemaS, LowerS += O.LowerS;
    SrcBytes += O.SrcBytes, Compiles += O.Compiles;
    CompileFails += O.CompileFails;
    InterpS += O.InterpS, Instrs += O.Instrs, ScalarRuns += O.ScalarRuns;
    ScalarRunsSaved += O.ScalarRunsSaved;
    AgentsSelfS += O.AgentsSelfS, DepsS += O.DepsS;
    FsmTasks += O.FsmTasks, Attempts += O.Attempts;
    FsmPlausible += O.FsmPlausible;
    StoreS += O.StoreS;
    Alive2S += O.Alive2S, CUnrollS += O.CUnrollS, SplitS += O.SplitS;
    EncodeS += O.EncodeS;
    DecAlive2 += O.DecAlive2, DecCUnroll += O.DecCUnroll;
    DecSplit += O.DecSplit;
    Queries += O.Queries, QueryDecided += O.QueryDecided, Terms += O.Terms;
    Clauses += O.Clauses, Vars += O.Vars, Conflicts += O.Conflicts;
    Props += O.Props, PortfolioQueries += O.PortfolioQueries;
    FastWins += O.FastWins, Memouts += O.Memouts;
    TaskS += O.TaskS;
    Mismatches.insert(Mismatches.end(), O.Mismatches.begin(),
                      O.Mismatches.end());
  }
};

/// Decorates a task's client with a timer around every complete() call.
class TimingClient : public llm::LLMClient {
public:
  TimingClient(std::unique_ptr<llm::LLMClient> Inner, Layers &L)
      : Inner(std::move(Inner)), L(L) {}
  llm::Completion complete(const llm::Prompt &P, uint64_t Index) override {
    Clock::time_point T0 = Clock::now();
    llm::Completion C = Inner->complete(P, Index);
    L.LlmS += secondsSince(T0);
    ++L.LlmCalls;
    return C;
  }

private:
  std::unique_ptr<llm::LLMClient> Inner;
  Layers &L;
};

/// The service's default client factory, decorated with TimingClient.
llm::ClientFactory timingFactory(Layers &L) {
  llm::ClientFactory Inner = llm::simulatedClientFactory();
  return [Inner, &L](uint64_t Seed) -> std::unique_ptr<llm::LLMClient> {
    return std::make_unique<TimingClient>(Inner(Seed), L);
  };
}

/// vir::compileFunction, one timer per layer call.
vir::VFunctionPtr compileTimed(const std::string &Src, Layers &L) {
  ++L.Compiles;
  L.SrcBytes += Src.size();
  Clock::time_point T0 = Clock::now();
  minic::ParseResult P = minic::parseFunction(Src);
  L.ParseS += secondsSince(T0);
  if (!P.ok()) {
    ++L.CompileFails;
    return nullptr;
  }
  T0 = Clock::now();
  minic::SemaResult S = minic::checkFunction(*P.Fn);
  L.SemaS += secondsSince(T0);
  if (!S.ok()) {
    ++L.CompileFails;
    return nullptr;
  }
  T0 = Clock::now();
  vir::LowerResult Lw = vir::lowerToVIR(*P.Fn);
  L.LowerS += secondsSince(T0);
  if (!Lw.ok())
    ++L.CompileFails;
  return std::move(Lw.Fn);
}

void tallyQuery(const tv::TVResult &R, Layers &L) {
  ++L.Queries;
  L.QueryDecided += R.decided();
  L.Terms += R.TermCount;
  L.Clauses += R.Clauses;
  L.Vars += R.SatVars;
  L.Conflicts += R.Conflicts;
  L.Props += R.Propagations;
  if (R.PortfolioArm) {
    ++L.PortfolioQueries;
    L.FastWins += R.PortfolioArm == 1;
  }
  L.Memouts += R.Detail.find("term limit exceeded") != std::string::npos;
}

void tallyEquiv(const core::EquivResult &E, Layers &L) {
  L.Alive2S += E.Alive2Nanos / 1e9;
  L.CUnrollS += E.CUnrollNanos / 1e9;
  L.SplitS += E.SplitNanos / 1e9;
  L.DecAlive2 += E.DecidedBy == core::Stage::Alive2Unroll;
  L.DecCUnroll += E.DecidedBy == core::Stage::CUnroll;
  L.DecSplit += E.DecidedBy == core::Stage::Splitting;
  if (E.Alive2Nanos)
    tallyQuery(E.Alive2Res, L);
  if (E.CUnrollNanos)
    tallyQuery(E.CUnrollRes, L);
  for (const tv::TVResult &R : E.SplitRes)
    tallyQuery(R, L);
}

/// The encode probe: the formal stages the real check ran are re-run with a
/// zero conflict budget, so their wall is the encoding cost (symbolic
/// execution, blasting, and the search up to the first conflict). Stage 2
/// runs alone. Stages 3 and 4 share one lazily built refinement session,
/// so when the real check reached stage 4 they are probed together and the
/// session is built once, as in the real check.
void encodeProbe(const svc::Request &Q, const std::string &Cand,
                 const core::EquivResult &Real, Layers &L) {
  auto probe = [&](bool Alive2, bool CUnroll, bool Split) {
    core::EquivConfig C = Q.Equiv;
    C.Alive2Budget = C.CUnrollBudget = C.SplitBudget = 0;
    C.EnableAlive2 = Alive2;
    C.EnableCUnroll = CUnroll;
    C.EnableSplitting = Split;
    core::EquivResult P = core::checkEquivalence(Q.ScalarSource, Cand, C);
    L.EncodeS += (P.Alive2Nanos + P.CUnrollNanos + P.SplitNanos) / 1e9;
  };
  if (Real.Alive2Nanos)
    probe(true, false, false);
  if (Real.CUnrollNanos || Real.SplitNanos)
    probe(false, Real.CUnrollNanos != 0, Real.SplitNanos != 0);
}

/// Re-executes one Pipeline request the way the service does, timing every
/// layer call. \p Store (warm replay) serves checksum outcomes and
/// verdicts the way the service's read-through cache does.
Layers mirrorPipeline(const svc::Request &Q, const svc::Outcome &Svc,
                      store::ResultStore *Store) {
  Layers L;
  {
    // deps: the dependence analysis the user-proxy agent runs (a probe
    // call; the FSM's own call is inside agents time).
    minic::ParseResult P = minic::parseFunction(Q.ScalarSource);
    Clock::time_point T0 = Clock::now();
    if (P.ok())
      (void)deps::analyzeFunction(*P.Fn);
    L.DepsS += secondsSince(T0);
  }
  Clock::time_point Task0 = Clock::now();
  std::unique_ptr<llm::LLMClient> Client = timingFactory(L)(Q.Seed);
  agents::FsmConfig FC = Q.Fsm;
  interp::ScalarRefMemo Memo;
  double TesterS = 0;
  FC.Tester = [&](const std::string &Cand, const vir::VFunction &S,
                  const vir::VFunction &V, const interp::ChecksumConfig &C) {
    Clock::time_point T0 = Clock::now();
    interp::ChecksumOutcome O;
    bool Hit = false;
    if (Store) {
      svc::VerdictCache::Key K =
          svc::VerdictCache::makeKey(Q.ScalarSource, Cand, C.configHash());
      Hit = Store->lookupChecksum(K.Scalar, K.Candidate, K.Config,
                                  Q.ScalarSource, Cand, O);
      L.StoreS += secondsSince(T0);
    }
    if (!Hit) {
      Clock::time_point T1 = Clock::now();
      O = interp::runChecksumTest(S, V, C, &Memo);
      L.InterpS += secondsSince(T1);
      L.Instrs += O.Work.Cand.Instrs + O.Work.Scalar.Instrs;
      L.ScalarRuns += O.Work.ScalarRuns;
      L.ScalarRunsSaved += O.Work.ScalarRunsSaved;
    }
    TesterS += secondsSince(T0);
    return O;
  };
  double Llm0 = L.LlmS;
  Clock::time_point T0 = Clock::now();
  agents::FsmResult F = agents::MultiAgentFsm(*Client, FC).run(Q.ScalarSource);
  L.AgentsSelfS += secondsSince(T0) - (L.LlmS - Llm0) - TesterS;
  ++L.FsmTasks;
  L.Attempts += F.Attempts;
  L.FsmPlausible += F.Plausible;
  if (F.Plausible != Svc.Fsm.Plausible ||
      F.FinalCandidate != Svc.Fsm.FinalCandidate)
    L.Mismatches.push_back(Q.Name + ": traced FSM result differs");
  if (!F.Plausible) {
    L.TaskS += secondsSince(Task0);
    if (Svc.VerifyRan)
      L.Mismatches.push_back(Q.Name + ": traced run skipped Algorithm 1");
    return L;
  }
  core::EquivResult E;
  bool Hit = false;
  if (Store) {
    Clock::time_point T1 = Clock::now();
    svc::VerdictCache::Key K = svc::VerdictCache::makeKey(
        Q.ScalarSource, F.FinalCandidate, Q.Equiv.configHash());
    Hit = Store->lookupEquiv(K.Scalar, K.Candidate, K.Config, Q.ScalarSource,
                             F.FinalCandidate, E);
    L.StoreS += secondsSince(T1);
  }
  if (!Hit) {
    E = core::checkEquivalence(Q.ScalarSource, F.FinalCandidate, Q.Equiv);
    tallyEquiv(E, L);
  }
  L.TaskS += secondsSince(Task0);
  if (!Hit)
    encodeProbe(Q, F.FinalCandidate, E, L);
  if (!Svc.VerifyRan || E.Final != Svc.Equiv.Final ||
      E.DecidedBy != Svc.Equiv.DecidedBy)
    L.Mismatches.push_back(Q.Name + ": traced verdict differs");
  return L;
}

/// Re-executes one Sample request the way the service does.
Layers mirrorSample(const svc::Request &Q, const svc::Outcome &Svc) {
  Layers L;
  Clock::time_point Task0 = Clock::now();
  std::unique_ptr<llm::LLMClient> Client = timingFactory(L)(Q.Seed);
  vir::VFunctionPtr Scalar = compileTimed(Q.ScalarSource, L);
  llm::Prompt P;
  P.ScalarSource = Q.ScalarSource;
  std::vector<vir::VFunctionPtr> Fns;
  std::map<std::string, size_t> Index;
  std::vector<std::vector<size_t>> Users;
  std::vector<bool> Compiles;
  for (int I = 0; I < Q.SampleCount; ++I) {
    llm::Completion C = Client->complete(P, static_cast<uint64_t>(I));
    vir::VFunctionPtr Fn = compileTimed(C.Source, L);
    Compiles.push_back(Fn != nullptr);
    if (!Fn || !Scalar || C.Source.find("_mm256_") == std::string::npos)
      continue;
    auto It = Index.find(C.Source);
    if (It == Index.end()) {
      It = Index.emplace(C.Source, Fns.size()).first;
      Fns.push_back(std::move(Fn));
      Users.emplace_back();
    }
    Users[It->second].push_back(static_cast<size_t>(I));
  }
  std::vector<bool> Plausible(Compiles.size(), false);
  if (!Fns.empty()) {
    std::vector<const vir::VFunction *> Ptrs;
    for (const vir::VFunctionPtr &F : Fns)
      Ptrs.push_back(F.get());
    Clock::time_point T0 = Clock::now();
    interp::ChecksumBatchResult B =
        interp::runChecksumBatch(*Scalar, Ptrs, Q.Fsm.Checksum);
    L.InterpS += secondsSince(T0);
    uint64_t Sets = 0;
    for (size_t I = 0; I < B.Outcomes.size(); ++I) {
      L.Instrs += B.Outcomes[I].Work.Cand.Instrs;
      Sets += B.Outcomes[I].Work.InputSets;
      for (size_t S : Users[I])
        Plausible[S] = B.Outcomes[I].plausible();
    }
    L.Instrs += B.ScalarWork.Instrs;
    L.ScalarRuns += B.ScalarRuns;
    L.ScalarRunsSaved += Sets > B.ScalarRuns ? Sets - B.ScalarRuns : 0;
  }
  L.TaskS += secondsSince(Task0);
  bool Same = Svc.Samples.size() == Compiles.size();
  for (size_t I = 0; Same && I < Compiles.size(); ++I)
    Same = Svc.Samples[I].Compiles == Compiles[I] &&
           Svc.Samples[I].Plausible == Plausible[I];
  if (!Same)
    L.Mismatches.push_back(Q.Name + ": traced sample verdicts differ");
  return L;
}

/// Runs \p Fn over [0, N) on \p Threads threads and merges the tallies.
Layers mirrorAll(size_t N, int Threads,
                 const std::function<Layers(size_t)> &Fn) {
  std::vector<Layers> Per(N);
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Per[I] = Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
  Layers All;
  for (const Layers &L : Per)
    All.add(L);
  return All;
}

/// Summed task wall of one round, as the service measured it.
double taskSeconds(const Round &R) {
  double S = 0;
  for (const svc::Outcome &O : R.Outs)
    S += O.WallNanos / 1e9;
  return S;
}

struct SvcTotals {
  double BusyS = 0, WallS = 0, QueueWaitS = 0;
  size_t Tasks = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
  store::StoreStats Store;
  uint64_t LogBytes = 0;
  std::vector<double> OpenS;
  int Workers = 1;

  void add(const Round &R) {
    BusyS += taskSeconds(R);
    WallS += R.WallS;
    QueueWaitS += R.QueueWaitS;
    Tasks += R.Outs.size();
    CacheHits += R.Cache.Hits;
    CacheLookups += R.Cache.Hits + R.Cache.Misses;
    Store.add(R.Store);
    LogBytes = std::max(LogBytes, R.LogBytes);
    OpenS.push_back(R.SetupS);
  }
};

double frac(double A, double B) { return B > 0 ? A / B : 0; }

void emitLayers(const Layers &L, const SvcTotals &S, bool HasStore,
                double ServiceTaskS, Report &Rep) {
  Rep.add("core.alive2_s", "s", L.Alive2S);
  Rep.add("core.cunroll_s", "s", L.CUnrollS);
  Rep.add("core.split_s", "s", L.SplitS);
  Rep.add("core.decided_alive2", "count", L.DecAlive2);
  Rep.add("core.decided_cunroll", "count", L.DecCUnroll);
  Rep.add("core.decided_split", "count", L.DecSplit);
  double Formal = L.Alive2S + L.CUnrollS + L.SplitS;
  double Encode = std::min(L.EncodeS, Formal);
  Rep.add("tv.encode_s", "s", Encode);
  Rep.add("tv.terms_per_query", "count", frac(L.Terms, L.Queries));
  Rep.add("smt.search_s", "s", Formal - Encode);
  Rep.add("smt.queries", "count", L.Queries);
  Rep.add("smt.clauses_per_query", "count", frac(L.Clauses, L.Queries));
  Rep.add("smt.vars_per_query", "count", frac(L.Vars, L.Queries));
  Rep.add("smt.conflicts", "count", L.Conflicts);
  Rep.add("smt.propagations", "count", L.Props);
  Rep.add("smt.mprops_per_s", "1/s",
          frac(L.Props / 1e6, Formal - Encode));
  Rep.add("smt.query_decided_frac", "fraction",
          frac(L.QueryDecided, L.Queries));
  Rep.add("smt.fast_win_frac", "fraction",
          frac(L.FastWins, L.PortfolioQueries));
  Rep.add("smt.memouts", "count", L.Memouts);
  Rep.add("llm.calls", "count", L.LlmCalls);
  Rep.add("llm.busy_s", "s", L.LlmS);
  Rep.add("minic.parse_s", "s", L.ParseS);
  Rep.add("minic.sema_s", "s", L.SemaS);
  Rep.add("minic.mb_per_s", "MB/s",
          frac(L.SrcBytes / 1e6, L.ParseS + L.SemaS));
  Rep.add("vir.lower_s", "s", L.LowerS);
  Rep.add("vir.compile_fail_frac", "fraction",
          frac(L.CompileFails, L.Compiles));
  Rep.add("interp.busy_s", "s", L.InterpS);
  Rep.add("interp.instrs", "count", L.Instrs);
  Rep.add("interp.scalar_runs_saved_frac", "fraction",
          frac(L.ScalarRunsSaved, L.ScalarRunsSaved + L.ScalarRuns));
  Rep.add("agents.self_s", "s", L.AgentsSelfS);
  Rep.add("agents.attempts_per_task", "count", frac(L.Attempts, L.FsmTasks));
  Rep.add("agents.plausible_frac", "fraction",
          frac(L.FsmPlausible, L.FsmTasks));
  Rep.add("deps.analyze_s", "s", L.DepsS);
  Rep.add("store.open_ms", "ms", HasStore ? median(S.OpenS) * 1e3 : 0);
  Rep.add("store.records_loaded", "count",
          HasStore ? frac(S.Store.LoadedEquiv + S.Store.LoadedChecksum +
                              S.Store.LoadedPrograms,
                          S.OpenS.size())
                   : 0);
  Rep.add("store.hit_frac", "fraction",
          frac(S.Store.Hits, S.Store.Hits + S.Store.Misses));
  Rep.add("store.writes", "count", S.Store.Writes);
  Rep.add("store.log_mb", "MB", S.LogBytes / 1e6);
  Rep.add("svc.busy_s", "s", S.BusyS);
  Rep.add("svc.queue_wait_ms", "ms", frac(S.QueueWaitS * 1e3, S.Tasks));
  Rep.add("svc.utilization", "fraction", frac(S.BusyS, S.Workers * S.WallS));
  Rep.add("svc.cache_hit_frac", "fraction",
          frac(S.CacheHits, S.CacheLookups));
  Rep.add("trace_overhead_frac", "fraction",
          ServiceTaskS > 0 ? L.TaskS / ServiceTaskS - 1 : 0);
  for (const std::string &M : L.Mismatches)
    Rep.fail(M);
  char Buf[300];
  std::snprintf(Buf, sizeof(Buf),
                "traced layers as a share of the service's task time "
                "(%.3f s): core+tv+smt %.3f, llm+minic+vir %.3f, interp "
                "%.3f, agents+deps %.3f, store %.3f",
                ServiceTaskS, frac(Formal, ServiceTaskS),
                frac(L.LlmS + L.ParseS + L.SemaS + L.LowerS, ServiceTaskS),
                frac(L.InterpS, ServiceTaskS),
                frac(L.AgentsSelfS + L.DepsS, ServiceTaskS),
                frac(L.StoreS, ServiceTaskS));
  Rep.Notes.push_back(Buf);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Untimed rounds before measuring: the first seconds of CPU-bound work on
/// an idle host run measurably slower (allocator growth, page faults, and
/// host frequency ramp-up), so the measured rounds start warm.
constexpr double WarmupSeconds = 2;

void warmUp(const std::function<void()> &OneRound) {
  Clock::time_point T0 = Clock::now();
  do
    OneRound();
  while (secondsSince(T0) < WarmupSeconds);
}

std::string warmDebugPath(const Options &O) { return O.Work + "/cold.debug"; }
std::string warmStoreDir(const Options &O) { return O.Work + "/store"; }

void writeDebugStrings(const std::string &Path,
                       const std::vector<svc::Outcome> &Outs) {
  std::ofstream F(Path, std::ios::binary);
  for (const svc::Outcome &O : Outs) {
    std::string D = svc::debugString(O);
    F << D.size() << "\n" << D;
  }
}

std::vector<std::string> readDebugStrings(const std::string &Path) {
  std::vector<std::string> Out;
  std::string Text;
  if (!readFile(Path, Text))
    return Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    size_t Len = std::strtoull(Text.c_str() + Pos, nullptr, 10);
    Out.push_back(Text.substr(Nl + 1, Len));
    Pos = Nl + 1 + Len;
  }
  return Out;
}

/// LLM streams funnel-cold runs side by side, each on its own one-worker
/// service: a one-worker service's wall is the sum of its task times, so
/// the seeded submission order cannot move it, and two streams give twice
/// the latency samples on the two workers the workload may use.
constexpr int ColdStreams = 2;

/// Pause between funnel-cold's set-up samples. A funnel-cold run is one
/// long round, so set-up is sampled on the otherwise idle main thread while
/// the streams run: one construction of the streams' service configuration
/// at a time, the way a user makes one. Back-to-back constructions instead
/// measure a hot loop whose per-process median jumped between 15, 23 and
/// 38 us with the host's state; sampled this way, the per-run median read
/// 87-106 us over thirty runs.
constexpr auto SetupEvery = std::chrono::milliseconds(50);

int runFunnelCold(const Options &O, Report &Rep) {
  EndToEnd E;
  SvcTotals ST;
  ST.Workers = ColdStreams;
  std::vector<Round> Rounds;
  Clock::time_point T0 = Clock::now();
  do {
    size_t Base = Rounds.size();
    Rounds.resize(Base + ColdStreams);
    std::atomic<int> Running{ColdStreams};
    std::vector<std::thread> Streams;
    for (int K = 0; K < ColdStreams; ++K)
      Streams.emplace_back([&, K] {
        Rounds[Base + K] =
            runRound(funnelRequests(O.Seed, static_cast<int>(Base) + K), 1,
                     "");
        --Running;
      });
    do {
      std::this_thread::sleep_for(SetupEvery);
      E.SetupS.push_back(serviceSetup(1));
    } while (Running > 0);
    for (std::thread &T : Streams)
      T.join();
  } while (secondsSince(T0) < O.Seconds);
  double WallS = secondsSince(T0);
  for (const Round &Rd : Rounds) {
    tallyFunnel(Rd, E);
    ST.add(Rd);
    Rep.Attempted += Rd.Outs.size();
    Rep.Failed += oracleViolations(Rd.Reqs, Rd.Outs, O.Seed, Rep.Notes);
  }
  // The streams overlap: throughput and utilization use the shared wall.
  E.WallS = ST.WallS = WallS;
  if (!O.Trace) {
    funnelSpeedups(Rounds[0], E);
    emitEndToEnd(E, Rep);
    return 0;
  }
  const Round &Rd = Rounds[0];
  Layers L = mirrorAll(Rd.Reqs.size(), ColdStreams, [&](size_t I) {
    return mirrorPipeline(Rd.Reqs[I], Rd.Outs[I], nullptr);
  });
  emitLayers(L, ST, false, taskSeconds(Rd), Rep);
  return 0;
}

/// LLM streams funnel-warm replays, all over funnel-cold's slice. A
/// stream's replayed tasks are cheap, so its costliest FSM generation sets
/// the latency tail: over one stream, one seed's p90 read 0.62-0.75 ms in
/// every run while most other seeds read 0.45-0.56 ms. Four streams pool
/// those costs, and the pre-pass took no longer for four than for two (20 s
/// for one stream, 31 s for two, 30 s for four): Algorithm 1 runs once per
/// distinct candidate, and the streams share most candidates.
constexpr int WarmStreams = 4;

std::vector<svc::Request> warmRequests(uint64_t Seed) {
  std::vector<svc::Request> Out;
  for (int K = 0; K < WarmStreams; ++K)
    for (svc::Request &R : funnelRequests(Seed, K))
      Out.push_back(std::move(R));
  return Out;
}

int runPrefill(const Options &O, Report &Rep) {
  std::error_code EC;
  fs::remove_all(O.Work, EC);
  fs::create_directories(O.Work, EC);
  Round Rd = runRound(warmRequests(O.Seed), 2, warmStoreDir(O));
  Rep.Attempted += Rd.Outs.size();
  Rep.Failed += oracleViolations(Rd.Reqs, Rd.Outs, O.Seed, Rep.Notes);
  writeDebugStrings(warmDebugPath(O), Rd.Outs);
  return 0;
}

int runFunnelWarm(const Options &O, Report &Rep) {
  const int Workers = 2;
  std::vector<std::string> Cold = readDebugStrings(warmDebugPath(O));
  std::vector<svc::Request> Reqs = warmRequests(O.Seed);
  if (Cold.size() != Reqs.size()) {
    Rep.fail("funnel-warm: no cold pre-pass in " + O.Work);
    return 1;
  }
  EndToEnd E;
  SvcTotals ST;
  ST.Workers = Workers;
  Round First;
  warmUp([&] { runRound(Reqs, Workers, warmStoreDir(O)); });
  Clock::time_point T0 = Clock::now();
  for (int R = 0; R == 0 || secondsSince(T0) < O.Seconds; ++R) {
    Round Rd = runRound(Reqs, Workers, warmStoreDir(O));
    tallyFunnel(Rd, E);
    ST.add(Rd);
    E.SetupS.push_back(Rd.SetupS);
    Rep.Attempted += Rd.Outs.size();
    size_t Diff = 0;
    for (size_t I = 0; I < Rd.Outs.size(); ++I)
      Diff += svc::debugString(Rd.Outs[I]) != Cold[I];
    if (Diff)
      Rep.fail("funnel-warm round " + std::to_string(R) + ": " +
               std::to_string(Diff) + " outcomes differ from the cold pass");
    if (R == 0) {
      First = std::move(Rd); // checked by the oracle below
      continue;
    }
    for (const svc::Outcome &Out : Rd.Outs)
      if (Out.Failed)
        Rep.fail(Out.Name + ": task failed: " + Out.Error);
  }
  Rep.Failed += oracleViolations(First.Reqs, First.Outs, O.Seed, Rep.Notes);
  if (!O.Trace) {
    funnelSpeedups(First, E);
    emitEndToEnd(E, Rep);
    return 0;
  }
  Clock::time_point Open0 = Clock::now();
  store::ResultStore Store(warmStoreDir(O));
  double OpenS = secondsSince(Open0);
  Layers L = mirrorAll(First.Reqs.size(), Workers, [&](size_t I) {
    return mirrorPipeline(First.Reqs[I], First.Outs[I], &Store);
  });
  L.StoreS += OpenS;
  emitLayers(L, ST, true, taskSeconds(First), Rep);
  return 0;
}

int runSamplePassk(const Options &O, Report &Rep) {
  const int Workers = 2;
  EndToEnd E;
  SvcTotals ST;
  ST.Workers = Workers;
  std::error_code EC;
  fs::create_directories(O.Work, EC);
  const std::string Dir = O.Work + "/sample-store";
  Round First;
  warmUp([&] {
    makeEmptyStore(Dir);
    runRound(sampleRequests(O.Seed, -1), Workers, Dir);
  });
  Clock::time_point T0 = Clock::now();
  for (int R = 0; R == 0 || secondsSince(T0) < O.Seconds; ++R) {
    makeEmptyStore(Dir);
    Round Rd = runRound(sampleRequests(O.Seed, R), Workers, Dir);
    tallySample(Rd, E);
    ST.add(Rd);
    E.SetupS.push_back(Rd.SetupS);
    Rep.Attempted += Rd.Outs.size();
    if (R == 0) {
      First = std::move(Rd); // checked by the oracle below
      continue;
    }
    for (const svc::Outcome &Out : Rd.Outs)
      if (Out.Failed)
        Rep.fail(Out.Name + ": task failed: " + Out.Error);
  }
  fs::remove_all(Dir, EC);
  Rep.Failed += sampleOracle(First, Rep);
  if (!O.Trace) {
    sampleSpeedups(First, E);
    emitEndToEnd(E, Rep);
    return 0;
  }
  Layers L = mirrorAll(First.Reqs.size(), Workers, [&](size_t I) {
    return mirrorSample(First.Reqs[I], First.Outs[I]);
  });
  emitLayers(L, ST, true, taskSeconds(First), Rep);
  return 0;
}

int runGolden(const Options &O, Report &Rep) {
  if (O.WriteGolden) {
    Round Rd = runRound(suiteRequests(GoldenSeed), 2, "");
    Rep.Attempted += Rd.Outs.size();
    Rep.Failed += oracleViolations(Rd.Reqs, Rd.Outs, GoldenSeed, Rep.Notes);
    std::ofstream F(O.Golden);
    F << "# (test, Final, DecidedBy) of every TSVC Pipeline request at LLM "
         "seed 0xC60,\n# Table-3 config. Written by `perfbench golden "
         "--write`.\n"
      << renderGolden(Rd.Outs);
    return F ? 0 : 1;
  }
  checkGolden(O.Golden, O.Seed, O.Pick, 2, Rep);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench run|prefill|golden [--workload W] "
                 "[--seed S] [--seconds T] [--trace 0|1] [--work DIR] "
                 "[--golden FILE] [--pick N] [--write]\n");
    return 2;
  }
  Report Rep;
  int Rc;
  if (O.Command == "prefill")
    Rc = runPrefill(O, Rep);
  else if (O.Command == "golden")
    Rc = runGolden(O, Rep);
  else if (O.Command != "run")
    Rc = 2;
  else if (O.Workload == "funnel-cold")
    Rc = runFunnelCold(O, Rep);
  else if (O.Workload == "funnel-warm")
    Rc = runFunnelWarm(O, Rep);
  else if (O.Workload == "sample-passk")
    Rc = runSamplePassk(O, Rep);
  else
    Rc = 2;
  if (Rc == 2) {
    std::fprintf(stderr, "perfbench: unknown command or workload\n");
    return 2;
  }
  for (const Metric &M : Rep.Metrics)
    if (!validMetricName(M.Name))
      Rep.fail("invalid metric name " + M.Name);
  printReport(Rep);
  return Rc;
}
