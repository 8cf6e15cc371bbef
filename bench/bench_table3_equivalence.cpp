//===- bench/bench_table3_equivalence.cpp - Table 3 reproduction --------------===//
//
// Reproduces paper Table 3: the staged equivalence-checking funnel over the
// TSVC dataset. Each stage consumes the previous stage's Inconclusive
// set:
//
//      Techniques   Total   Equiv  NotEquiv  Inconcl     (paper)
//      Checksum      149      0       24       125
//      Alive2        125     26       17        82
//      C-Unroll       82     28       18        36
//      Splitting      36      3        2        31
//      All           149     57       61        31
//
// We report the same funnel for our pipeline, plus per-stage query-size
// statistics showing *why* the domain-specific techniques scale better
// (the paper's §3 argument).
//
// The funnel then runs as an *arm matrix* over the stage-4 cell fan-out
// width of the stage-3/4 session (every query runs in a throwaway fork of
// a pristine base):
//
//   fork              sequential per-cell loop (the reference and the
//                     EquivConfig default)
//   fork_par2/8       stage-4 cells fanned across 2/8 workers
//
// Budget-bound verdicts are sensitive to search order, so the matrix is a
// verdict-parity harness first and a speedup report second: it counts,
// for every arm, tests whose (Final, DecidedBy) differ from the fork
// reference, and the exit gates require (a) the fork arm to reproduce the
// committed verdict golden perfbench/golden_verdicts.txt line for line,
// "none none" marking pairs without a plausible candidate (--quick checks
// its subset), (b) parity for the arm matching the EquivConfig defaults
// (the configuration the svc funnel actually ships), and (c) the parallel
// cell dispatch bit-identical to the sequential loop record-for-record
// (fork == fork_par2 == fork_par8).
// Everything is mirrored to BENCH_table3.json for CI tracking.
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

using namespace lv;
using namespace lv::bench;
using core::EquivResult;
using core::Stage;

static uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Funnel tallies for one run.
struct FunnelTally {
  int ChecksumNotEq = 0, Plaus = 0;
  int A2Eq = 0, A2Neq = 0, A2In = 0;
  int CUEq = 0, CUNeq = 0, CUIn = 0;
  int SpEq = 0, SpNeq = 0, SpIn = 0;
  uint64_t A2Clauses = 0, CUClauses = 0, SpClauses = 0;
  int A2N = 0, CUN = 0, SpN = 0;
  // Spatial-splitting stage cost (per-stage SatWork aggregated by svc).
  svc::StageSatWork SplitWork;
  uint64_t SplitWallNanos = 0;
  int SplitQueries = 0;

  int allEq() const { return A2Eq + CUEq + SpEq; }
  int allNeq() const { return ChecksumNotEq + A2Neq + CUNeq + SpNeq; }
  uint64_t splitSatWork() const {
    return SplitWork.Conflicts + SplitWork.Propagations;
  }
};

FunnelTally tally(const std::vector<FunnelRecord> &Funnel) {
  FunnelTally T;
  for (const FunnelRecord &R : Funnel) {
    // Splitting-stage cost is charged whenever the stage ran, regardless
    // of which stage decided.
    T.SplitWork.add(R.SplitWork);
    T.SplitQueries += static_cast<int>(R.Result.SplitRes.size());
    T.SplitWallNanos += R.Result.SplitNanos;

    if (!R.HadPlausible) {
      ++T.ChecksumNotEq;
      continue;
    }
    // A plausible candidate entering the funnel may still be rejected by
    // the fresh checksum run inside checkEquivalence; count it as decided
    // by testing.
    if (R.Result.DecidedBy == Stage::Checksum) {
      ++T.ChecksumNotEq;
      continue;
    }
    ++T.Plaus;
    const tv::TVResult &A = R.Result.Alive2Res;
    bool A2Decided = A.V == tv::TVVerdict::Equivalent ||
                     A.V == tv::TVVerdict::Inequivalent;
    if (A.Clauses > 0) {
      T.A2Clauses += A.Clauses;
      ++T.A2N;
    }
    if (A.V == tv::TVVerdict::Equivalent)
      ++T.A2Eq;
    else if (A.V == tv::TVVerdict::Inequivalent)
      ++T.A2Neq;
    else
      ++T.A2In;
    if (A2Decided)
      continue;
    const tv::TVResult &CU = R.Result.CUnrollRes;
    bool CUDecided = CU.V == tv::TVVerdict::Equivalent ||
                     CU.V == tv::TVVerdict::Inequivalent;
    if (CU.Clauses > 0) {
      T.CUClauses += CU.Clauses;
      ++T.CUN;
    }
    if (CU.V == tv::TVVerdict::Equivalent)
      ++T.CUEq;
    else if (CU.V == tv::TVVerdict::Inequivalent)
      ++T.CUNeq;
    else
      ++T.CUIn;
    if (CUDecided)
      continue;
    for (const tv::TVResult &S : R.Result.SplitRes)
      if (S.Clauses > 0) {
        T.SpClauses += S.Clauses;
        ++T.SpN;
      }
    if (R.Result.DecidedBy == Stage::Splitting) {
      if (R.Result.Final == EquivResult::Equivalent)
        ++T.SpEq;
      else
        ++T.SpNeq;
    } else {
      ++T.SpIn;
    }
  }
  return T;
}

/// One matrix arm: a solving configuration of the funnel.
struct Arm {
  const char *Name;
  int CellWorkers = 1; ///< SplitCellWorkers (stage-4 fan-out width).

  std::vector<FunnelRecord> Records{};
  FunnelTally T{};
  int Mismatches = 0; ///< Tests whose (Final, DecidedBy) differ from fork.
};

/// Field-level equality of two query results, SolveNanos excluded (the
/// one field wall-clock is allowed to vary under). Everything else —
/// verdict, diagnostics, and solver work — must be bit-identical for the
/// worker-count gates.
bool tvEq(const tv::TVResult &A, const tv::TVResult &B) {
  return A.V == B.V && A.Conflicts == B.Conflicts &&
         A.Propagations == B.Propagations && A.Restarts == B.Restarts &&
         A.Clauses == B.Clauses && A.SatVars == B.SatVars &&
         A.LearntLive == B.LearntLive && A.AvgLBD == B.AvgLBD &&
         A.TermCount == B.TermCount && A.Detail == B.Detail &&
         A.Counterexample == B.Counterexample;
}

/// Record-for-record bit identity between two arms (verdicts, stage
/// results, per-cell results). Prints the first divergence found.
bool recordsBitEqual(const Arm &A, const Arm &B) {
  if (A.Records.size() != B.Records.size())
    return false;
  for (size_t K = 0; K < A.Records.size(); ++K) {
    const core::EquivResult &RA = A.Records[K].Result;
    const core::EquivResult &RB = B.Records[K].Result;
    bool Eq = RA.Final == RB.Final && RA.DecidedBy == RB.DecidedBy &&
              RA.Detail == RB.Detail &&
              RA.Counterexample == RB.Counterexample &&
              tvEq(RA.Alive2Res, RB.Alive2Res) &&
              tvEq(RA.CUnrollRes, RB.CUnrollRes) &&
              RA.SplitRes.size() == RB.SplitRes.size();
    for (size_t C = 0; Eq && C < RA.SplitRes.size(); ++C)
      Eq = tvEq(RA.SplitRes[C], RB.SplitRes[C]);
    if (!Eq) {
      std::printf("  CELL-DISPATCH DIVERGENCE [%s vs %s] %s\n", A.Name,
                  B.Name, A.Records[K].Name.c_str());
      return false;
    }
  }
  return true;
}

/// The "name final decided-by" line a record contributes to a funnel
/// summary.
std::string summaryLine(const FunnelRecord &R) {
  return format("%s %s %s", R.Name.c_str(), core::outcomeName(R.Result.Final),
                core::stageName(R.Result.DecidedBy));
}

/// The line a record contributes to the verdict golden: its summary
/// line, or "name none none" when no candidate passed checksum testing.
std::string goldenLine(const FunnelRecord &R) {
  return R.HadPlausible ? summaryLine(R) : R.Name + " none none";
}

/// Reads the verdict golden (perfbench/golden_verdicts.txt) into name ->
/// line; '#' lines are comments. Empty when the file is missing.
std::map<std::string, std::string> loadGolden(const std::string &Path) {
  std::map<std::string, std::string> G;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      G[Line.substr(0, Line.find(' '))] = Line;
  return G;
}

/// --quick test subset: budget-borderline pairs decided late in the funnel
/// (they run all the way into stage 4), plus enough ordinary pairs to keep
/// the funnel-shape gate meaningful (checksum rejects, alive2/c-unroll
/// deciders, and splitting survivors).
const char *QuickTests[] = {
    // Budget-borderline pairs (s319 decided at c-unroll, the rest at
    // spatial splitting).
    "s253", "s271", "s272", "s319", "s1279", "s2711",
    // Splitting-stage survivors (stay inconclusive end to end).
    "s273", "s274", "s276", "s2712",
    // C-unroll equivalence deciders, one alive2 decider, and checksum
    // rejects, keeping the funnel-shape gate meaningful.
    "s000", "s113", "s125", "s131", "s291", "vcnt", "s111", "s112", "s114",
};

/// Report word for a gate: SKIPPED when it had nothing to check (its arms
/// did not run, or did no work), so a vacuous pass never reads as OK. The
/// exit code still counts a vacuous gate as passing.
const char *gateWord(bool Vacuous, bool Ok) {
  return Vacuous ? "SKIPPED" : Ok ? "OK" : "MISMATCH";
}

} // namespace

int main(int argc, char **argv) {
  BenchOptions Opt = parseBenchArgs(argc, argv);
  bool Quick = false; // --quick: borderline test subset + 2 arms
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--quick") == 0)
      Quick = true;

  // Tracing is scoped to the default (fork) arm only: corpus
  // generation and the other arms would otherwise pollute the
  // span-vs-tally parity sums.
  const bool TraceRequested = obs::tracingEnabled();
  obs::setTracingEnabled(false);

  printHeader("Table 3: equivalence-checking funnel");
  std::vector<TestCorpus> Corpus;
  if (Quick) {
    std::vector<const tsvc::TsvcTest *> Tests;
    for (const char *Name : QuickTests)
      if (const tsvc::TsvcTest *T = tsvc::findTest(Name))
        Tests.push_back(T);
    std::printf("  sampling candidates and running Algorithm 1 over %zu "
                "tests (--quick subset, --jobs %d)...\n",
                Tests.size(), Opt.Jobs);
    Corpus = buildCorpusFor(Tests, 100, ExperimentSeed, Opt.Jobs);
  } else {
    std::printf("  sampling candidates and running Algorithm 1 over %zu "
                "tests (--jobs %d)...\n",
                tsvc::suite().size(), Opt.Jobs);
    Corpus = buildCorpus(100, ExperimentSeed, Opt.Jobs);
  }
  const int Total = static_cast<int>(Corpus.size());

  core::EquivConfig Base;
  Base.ScalarMax = 8;
  Base.MaxTerms = 120'000;
  Base.Alive2Budget = 500;
  Base.CUnrollBudget = 2'000;
  Base.SplitBudget = 300;

  // [store] Persistent warm-start measurement: the funnel serves the same
  // corpus twice through a scratch result store — the cold run populates
  // it, the warm run (a fresh service over the same directory) replays
  // every verdict from disk and never enters the checksum or solver
  // stages. Gates: serialized EquivResults bit-identical across the two
  // runs (the store's replay contract), the cold run persisted records,
  // the warm run was pure hits, and the combined checksum+splitting span
  // wall collapsed by >= 5x. Runs before the arm matrix so the traced
  // default arm still owns the trace buffers at artifact-write time.
  struct StoreRun {
    std::string Bits;    ///< Concatenated serializeEquivResult records.
    std::string Summary; ///< "name final decided-by" lines (arm-comparable:
                         ///< stable under wall-clock jitter, unlike Bits).
    ServiceRunStats Stats;
    uint64_t StageNs = 0; ///< stage.checksum + stage.split span walls.
    uint64_t WallNs = 0;
  };
  auto storeRun = [&](const std::string &Dir) {
    StoreRun Out;
    obs::resetTrace();
    obs::setTracingEnabled(true);
    uint64_t T0 = nowNanos();
    std::vector<FunnelRecord> Recs =
        runFunnel(Corpus, Base, Opt.Jobs, Dir, &Out.Stats);
    Out.WallNs = nowNanos() - T0;
    obs::setTracingEnabled(false);
    for (const obs::TraceEvent &E : obs::snapshotTrace())
      if (std::strcmp(E.Name, "stage.checksum") == 0 ||
          std::strcmp(E.Name, "stage.split") == 0)
        Out.StageNs += E.DurNs;
    obs::resetTrace();
    for (const FunnelRecord &R : Recs) {
      Out.Bits += R.Name;
      Out.Bits += store::serializeEquivResult(R.Result);
      Out.Summary += summaryLine(R) + "\n";
    }
    return Out;
  };
  std::printf("  [store] cold/warm funnel on a scratch store...\n");
  const std::string ScratchStore = "BENCH_table3.store.scratch";
  std::error_code ScratchEC;
  std::filesystem::remove_all(ScratchStore, ScratchEC);
  StoreRun ColdRun = storeRun(ScratchStore);
  StoreRun WarmRun = storeRun(ScratchStore);
  bool StoreBitOk = !ColdRun.Bits.empty() && ColdRun.Bits == WarmRun.Bits;
  bool StoreColdOk = ColdRun.Stats.Store.Writes > 0;
  bool StoreWarmOk =
      WarmRun.Stats.Store.Hits > 0 && WarmRun.Stats.Store.Misses == 0;
  bool StoreSpeedOk =
      ColdRun.StageNs > 0 && ColdRun.StageNs >= 5 * WarmRun.StageNs;
  StoreRun PersistRun;
  const bool HavePersist = !Opt.StorePath.empty();
  bool PersistOk = true;
  if (HavePersist) {
    std::printf("  [store] run against --store %s...\n",
                Opt.StorePath.c_str());
    PersistRun = storeRun(Opt.StorePath);
    PersistOk = PersistRun.Summary == ColdRun.Summary;
  }

  // Name, CellWorkers. Every arm pins SplitCellWorkers explicitly, so each
  // keeps measuring exactly the configuration it is named after whatever
  // the EquivConfig defaults.
  std::vector<Arm> Arms = {
      {"fork", 1},
      {"fork_par2", 2},
      {"fork_par8", 8},
  };
  if (Quick)
    Arms.pop_back();

  // The arm that matches the EquivConfig defaults — the configuration the
  // svc funnel actually runs with. Its parity is a hard gate (vacuous
  // while the default is the fork reference itself).
  const size_t ForkArm = 0;
  int DefaultArm = -1;
  for (size_t I = 0; I < Arms.size(); ++I)
    if (Arms[I].CellWorkers == core::EquivConfig().SplitCellWorkers)
      DefaultArm = static_cast<int>(I);

  // The fork arm is the verdict-parity reference; the default arm doubles
  // as the observability reference: it runs traced (fresh trace +
  // metrics), and its span/counter sums are gated against the
  // StageSatWork/StageInterpWork tallies below.
  const size_t TracedArm =
      DefaultArm >= 0 ? static_cast<size_t>(DefaultArm) : ForkArm;
  std::vector<obs::TraceEvent> Events;
  std::vector<obs::CounterSample> Counters;
  std::string TraceDoc, MetricsDoc;

  for (size_t I = 0; I < Arms.size(); ++I) {
    Arm &A = Arms[I];
    core::EquivConfig Cfg = Base;
    Cfg.SplitCellWorkers = A.CellWorkers;
    std::printf("  [%zu/%zu] %s...\n", I + 1, Arms.size(), A.Name);
    if (I == TracedArm) {
      obs::resetTrace();
      obs::resetMetrics();
      obs::setTracingEnabled(true);
    }
    A.Records = runFunnel(Corpus, Cfg, Opt.Jobs);
    A.T = tally(A.Records);
    if (I == TracedArm) {
      obs::setTracingEnabled(false);
      // Scrape immediately: the later arms keep feeding the (always-on)
      // metrics registry, so the parity comparison needs a point-in-time
      // snapshot of counters and both JSON documents.
      Events = obs::snapshotTrace();
      Counters = obs::snapshotCounters();
      TraceDoc = obs::traceChromeJson();
      MetricsDoc = obs::metricsJson();
    }
  }

  // Golden parity: the fork arm against the committed (Final, DecidedBy)
  // golden, pair by pair (a --quick run checks only its subset). The
  // perfbench golden holds the same 149 verdicts at the same seed and
  // config, so it is the one source of truth for both.
  const std::string GoldenPath =
      std::string(LV_SOURCE_DIR) + "/perfbench/golden_verdicts.txt";
  const std::map<std::string, std::string> Golden = loadGolden(GoldenPath);
  int GoldenMismatches = 0;
  if (Golden.empty())
    std::printf("  GOLDEN MISSING: %s unreadable or empty\n",
                GoldenPath.c_str());
  for (const FunnelRecord &R : Arms[ForkArm].Records) {
    auto It = Golden.find(R.Name);
    std::string Got = goldenLine(R);
    if (It == Golden.end() || It->second != Got) {
      ++GoldenMismatches;
      std::printf("  GOLDEN MISMATCH %s: expected '%s', got '%s'\n",
                  R.Name.c_str(),
                  It == Golden.end() ? "(absent)" : It->second.c_str(),
                  Got.c_str());
    }
  }
  // A full run covers every golden pair; a --quick run a subset of them.
  bool GoldenParityOk =
      !Golden.empty() && GoldenMismatches == 0 &&
      (Quick || Golden.size() == Arms[ForkArm].Records.size());

  // Verdict parity: every arm against the fork reference.
  int TotalMismatches = 0;
  for (size_t I = 0; I < Arms.size(); ++I) {
    if (I == ForkArm)
      continue;
    Arm &A = Arms[I];
    for (size_t K = 0; K < A.Records.size(); ++K) {
      if (A.Records[K].Result.Final !=
              Arms[ForkArm].Records[K].Result.Final ||
          A.Records[K].Result.DecidedBy !=
              Arms[ForkArm].Records[K].Result.DecidedBy) {
        ++A.Mismatches;
        std::printf("  VERDICT MISMATCH [%s] %s: %s/%s vs fork %s/%s\n",
                    A.Name, A.Records[K].Name.c_str(),
                    core::outcomeName(A.Records[K].Result.Final),
                    core::stageName(A.Records[K].Result.DecidedBy),
                    core::outcomeName(Arms[ForkArm].Records[K].Result.Final),
                    core::stageName(Arms[ForkArm].Records[K].Result.DecidedBy));
      }
    }
    TotalMismatches += A.Mismatches;
  }

  // The store runs used the unmodified Base config — the EquivConfig
  // defaults — so their (Final, DecidedBy) funnel must match the default
  // arm of the matrix exactly.
  bool StoreArmParityOk = true;
  if (DefaultArm >= 0) {
    std::string ArmSummary;
    for (const FunnelRecord &R : Arms[static_cast<size_t>(DefaultArm)].Records)
      ArmSummary += summaryLine(R) + "\n";
    StoreArmParityOk = ColdRun.Summary == ArmSummary;
  }

  const FunnelTally &TA = Arms[ForkArm].T; // funnel shape from fork arm

  std::printf("\n  %-12s %7s %7s %9s %9s   (paper)\n", "Technique", "Total",
              "Equiv", "NotEquiv", "Inconcl");
  std::printf("  %-12s %7d %7d %9d %9d   149/0/24/125\n", "Checksum", Total,
              0, TA.ChecksumNotEq, TA.Plaus);
  std::printf("  %-12s %7d %7d %9d %9d   125/26/17/82\n", "Alive2",
              TA.Plaus, TA.A2Eq, TA.A2Neq, TA.A2In);
  std::printf("  %-12s %7d %7d %9d %9d   82/28/18/36\n", "C-Unroll",
              TA.A2In, TA.CUEq, TA.CUNeq, TA.CUIn);
  std::printf("  %-12s %7d %7d %9d %9d   36/3/2/31\n", "Splitting",
              TA.CUIn, TA.SpEq, TA.SpNeq, TA.SpIn);
  std::printf("  %-12s %7d %7d %9d %9d   149/57/61/31\n", "All", Total,
              TA.allEq(), TA.allNeq(), TA.SpIn);

  std::printf("\n  mean SAT clauses per query (why the techniques scale):\n");
  if (TA.A2N)
    std::printf("    alive2-unroll: %10llu\n",
                static_cast<unsigned long long>(
                    TA.A2Clauses / static_cast<uint64_t>(TA.A2N)));
  if (TA.CUN)
    std::printf("    c-unroll:      %10llu\n",
                static_cast<unsigned long long>(
                    TA.CUClauses / static_cast<uint64_t>(TA.CUN)));
  if (TA.SpN)
    std::printf("    splitting:     %10llu (per cell)\n",
                static_cast<unsigned long long>(
                    TA.SpClauses / static_cast<uint64_t>(TA.SpN)));

  // The arm matrix: splitting-stage cost per configuration.
  std::printf("\n  spatial-splitting stage by arm (parity vs fork):\n");
  std::printf("  %-18s %9s %12s %12s %10s %9s\n", "arm", "queries",
              "conflicts", "props", "wall-ms", "mismatch");
  for (const Arm &A : Arms) {
    std::printf("  %-18s %9d %12llu %12llu %10.1f %9d\n", A.Name,
                A.T.SplitQueries,
                static_cast<unsigned long long>(A.T.SplitWork.Conflicts),
                static_cast<unsigned long long>(A.T.SplitWork.Propagations),
                static_cast<double>(A.T.SplitWallNanos) / 1e6,
                A.Mismatches);
  }

  // Gates.
  bool ShapeOk = TA.allEq() > TA.A2Eq && (TA.CUEq + TA.CUNeq) > 0 &&
                 TA.Plaus > TA.allEq();
  bool DefaultParityOk = DefaultArm < 0 ||
                         Arms[static_cast<size_t>(DefaultArm)].Mismatches == 0;

  // Parallel cell dispatch: every fan-out arm reproduces the sequential
  // fork loop record-for-record, so results are bit-identical at every
  // worker count.
  bool ParCellBitOk = true;
  for (size_t I = 0; I < Arms.size(); ++I)
    if (I != ForkArm && Arms[I].CellWorkers > 1)
      ParCellBitOk = recordsBitEqual(Arms[ForkArm], Arms[I]) && ParCellBitOk;
  const bool ParCellVacuous = Arms.size() < 2;

  // Observability gates on the traced default arm: the per-stage span
  // args and the tv.* counters must reproduce the StageSatWork/
  // StageInterpWork tallies svc aggregated from the same TVResults
  // (cache-free funnel, so every verify task emits exactly one set of
  // stage spans).
  svc::StageSatWork FA2, FCU, FSP;
  svc::StageInterpWork FCK;
  uint64_t FA2Nanos = 0, FCUNanos = 0, FSPNanos = 0, FCKNanos = 0;
  size_t VerifyTasks = 0;
  for (const FunnelRecord &R : Arms[TracedArm].Records) {
    if (R.HadPlausible)
      ++VerifyTasks;
    FA2.add(R.Alive2Work);
    FCU.add(R.CUnrollWork);
    FSP.add(R.SplitWork);
    FCK.add(R.ChecksumWork);
    FA2Nanos += R.Result.Alive2Nanos;
    FCUNanos += R.Result.CUnrollNanos;
    FSPNanos += R.Result.SplitNanos;
    FCKNanos += R.Result.ChecksumNanos;
  }
  auto satStageParity = [&](const char *Span, const svc::StageSatWork &W) {
    return sumSpanArg(Events, Span, "conflicts") == W.Conflicts &&
           sumSpanArg(Events, Span, "propagations") == W.Propagations &&
           sumSpanArg(Events, Span, "restarts") == W.Restarts;
  };
  bool SpanParityOk =
      satStageParity("stage.alive2", FA2) &&
      satStageParity("stage.cunroll", FCU) &&
      satStageParity("stage.split", FSP) &&
      sumSpanArg(Events, "stage.checksum", "instrs") == FCK.Instrs &&
      sumSpanArg(Events, "stage.checksum", "cand_runs") == FCK.CandRuns &&
      sumSpanArg(Events, "stage.checksum", "scalar_runs") == FCK.ScalarRuns &&
      countSpans(Events, "task.verify") == VerifyTasks;
  // The EquivResult per-stage nanos are *sourced from* the spans (the Span
  // DurOut accumulates the same duration the event records), so the span
  // durations must sum to the record fields exactly.
  auto sumSpanDur = [&](const char *Name) {
    uint64_t Sum = 0;
    for (const obs::TraceEvent &Ev : Events)
      if (std::strcmp(Ev.Name, Name) == 0)
        Sum += Ev.DurNs;
    return Sum;
  };
  bool WallParityOk = sumSpanDur("stage.alive2") == FA2Nanos &&
                      sumSpanDur("stage.cunroll") == FCUNanos &&
                      sumSpanDur("stage.split") == FSPNanos &&
                      sumSpanDur("stage.checksum") == FCKNanos;
  // tv.* counters aggregate every solver query; in the funnel each query
  // result lands in exactly one of the three stage works.
  auto cval = [&](const char *Name) {
    for (const obs::CounterSample &C : Counters)
      if (C.Name == Name)
        return C.Value;
    return static_cast<uint64_t>(0);
  };
  bool CounterParityOk =
      cval("tv.conflicts") == FA2.Conflicts + FCU.Conflicts + FSP.Conflicts &&
      cval("tv.propagations") ==
          FA2.Propagations + FCU.Propagations + FSP.Propagations &&
      cval("tv.restarts") == FA2.Restarts + FCU.Restarts + FSP.Restarts &&
      cval("svc.tasks") == VerifyTasks;
  std::string TraceErr, MetricsErr;
  std::vector<std::string> TraceKeys, MetricsKeys;
  auto hasKey = [](const std::vector<std::string> &Keys, const char *K) {
    for (const std::string &S : Keys)
      if (S == K)
        return true;
    return false;
  };
  bool TraceJsonOk = obs::json::validate(TraceDoc, &TraceErr, &TraceKeys) &&
                     hasKey(TraceKeys, "traceEvents");
  bool MetricsJsonOk =
      obs::json::validate(MetricsDoc, &MetricsErr, &MetricsKeys) &&
      hasKey(MetricsKeys, "schema_version") &&
      hasKey(MetricsKeys, "counters") && hasKey(MetricsKeys, "histograms");
  obs::TraceStats TS = obs::traceStats();

  std::printf("\n  funnel shape (stages add verdicts beyond Alive2): %s\n",
              ShapeOk ? "OK" : "MISMATCH");
  std::printf("  golden == fork verdicts on all %d pairs: %s\n", Total,
              GoldenParityOk ? "OK" : "MISMATCH");
  std::printf("  default config (%s) parity: %s\n",
              DefaultArm >= 0 ? Arms[static_cast<size_t>(DefaultArm)].Name
                              : "n/a",
              gateWord(DefaultArm < 0 ||
                           static_cast<size_t>(DefaultArm) == ForkArm,
                       DefaultParityOk));
  std::printf("  full matrix bit-identical: %s (%d mismatching verdicts)\n",
              TotalMismatches == 0 ? "OK" : "NO", TotalMismatches);
  std::printf("  parallel cell dispatch bit-identical to the sequential "
              "loop: %s\n",
              gateWord(ParCellVacuous, ParCellBitOk));
  std::printf("  stage span sums reproduce StageSat/InterpWork tallies: %s\n",
              SpanParityOk ? "OK" : "MISMATCH");
  std::printf("  stage span durations reproduce EquivResult nanos: %s\n",
              WallParityOk ? "OK" : "MISMATCH");
  std::printf("  tv.*/svc.* counters reproduce stage tallies: %s\n",
              CounterParityOk ? "OK" : "MISMATCH");
  std::printf("  trace/metrics JSON well-formed: %s / %s\n",
              TraceJsonOk ? "OK" : TraceErr.c_str(),
              MetricsJsonOk ? "OK" : MetricsErr.c_str());
  std::printf("  trace: %llu events on %llu thread(s), %llu dropped\n",
              static_cast<unsigned long long>(TS.Events),
              static_cast<unsigned long long>(TS.Threads),
              static_cast<unsigned long long>(TS.Dropped));
  std::printf("  store cold run: %.1fms wall, %.1fms checksum+split spans, "
              "%llu writes\n",
              static_cast<double>(ColdRun.WallNs) / 1e6,
              static_cast<double>(ColdRun.StageNs) / 1e6,
              static_cast<unsigned long long>(ColdRun.Stats.Store.Writes));
  std::printf("  store warm run: %.1fms wall, %.1fms checksum+split spans, "
              "%llu hits, %llu misses\n",
              static_cast<double>(WarmRun.WallNs) / 1e6,
              static_cast<double>(WarmRun.StageNs) / 1e6,
              static_cast<unsigned long long>(WarmRun.Stats.Store.Hits),
              static_cast<unsigned long long>(WarmRun.Stats.Store.Misses));
  std::printf("  warm replay bit-identical EquivResults: %s\n",
              StoreBitOk ? "OK" : "MISMATCH");
  std::printf("  warm run pure store hits, cold run persisted: %s\n",
              StoreWarmOk && StoreColdOk ? "OK" : "MISMATCH");
  std::printf("  warm checksum+split spans collapse (>= 5x under cold): %s\n",
              StoreSpeedOk ? "OK" : "MISMATCH");
  std::printf("  store funnel matches default arm (Final/DecidedBy): %s\n",
              StoreArmParityOk ? "OK" : "MISMATCH");
  if (HavePersist)
    std::printf("  persistent store run (--store): %llu hits, %llu writes, "
                "parity %s\n",
                static_cast<unsigned long long>(PersistRun.Stats.Store.Hits),
                static_cast<unsigned long long>(PersistRun.Stats.Store.Writes),
                PersistOk ? "OK" : "MISMATCH");

  // Machine-readable mirror for the perf trajectory (envelope comes from
  // the shared writeBenchJson writer).
  std::string J;
  appendf(J, "  \"funnel\": {\n");
  appendf(J,
          "    \"checksum\": {\"total\": %d, \"equiv\": 0, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          Total, TA.ChecksumNotEq, TA.Plaus);
  appendf(J,
          "    \"alive2\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.Plaus, TA.A2Eq, TA.A2Neq, TA.A2In);
  appendf(J,
          "    \"c_unroll\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.A2In, TA.CUEq, TA.CUNeq, TA.CUIn);
  appendf(J,
          "    \"splitting\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d},\n",
          TA.CUIn, TA.SpEq, TA.SpNeq, TA.SpIn);
  appendf(J,
          "    \"all\": {\"total\": %d, \"equiv\": %d, \"noteq\": %d, "
          "\"inconcl\": %d}\n  },\n",
          Total, TA.allEq(), TA.allNeq(), TA.SpIn);
  appendf(J, "  \"arms\": [\n");
  for (size_t I = 0; I < Arms.size(); ++I) {
    const Arm &A = Arms[I];
    appendf(J,
            "    {\"name\": \"%s\", \"queries\": %d, \"conflicts\": %llu, "
            "\"propagations\": %llu, \"wall_ns\": %llu, "
            "\"mismatches\": %d, \"cell_workers\": %d}%s\n",
            A.Name, A.T.SplitQueries,
            static_cast<unsigned long long>(A.T.SplitWork.Conflicts),
            static_cast<unsigned long long>(A.T.SplitWork.Propagations),
            static_cast<unsigned long long>(A.T.SplitWallNanos),
            A.Mismatches, A.CellWorkers, I + 1 < Arms.size() ? "," : "");
  }
  appendf(J, "  ],\n");
  // Per-stage SAT work of the default configuration (the numbers the svc
  // Outcome aggregation feeds): alive2 / c-unroll / splitting.
  if (DefaultArm >= 0) {
    svc::StageSatWork A2, CU, SP;
    for (const FunnelRecord &R :
         Arms[static_cast<size_t>(DefaultArm)].Records) {
      A2.add(R.Alive2Work);
      CU.add(R.CUnrollWork);
      SP.add(R.SplitWork);
    }
    appendf(J, "  \"default_mode\": \"%s\",\n",
            Arms[static_cast<size_t>(DefaultArm)].Name);
    appendf(J, "  \"default_stage_work\": {\n");
    auto StageJson = [&](const char *Name, const svc::StageSatWork &W,
                         const char *Sep) {
      appendf(J,
              "    \"%s\": {\"conflicts\": %llu, \"propagations\": %llu, "
              "\"restarts\": %llu}%s\n",
              Name, static_cast<unsigned long long>(W.Conflicts),
              static_cast<unsigned long long>(W.Propagations),
              static_cast<unsigned long long>(W.Restarts), Sep);
    };
    StageJson("alive2", A2, ",");
    StageJson("c_unroll", CU, ",");
    StageJson("splitting", SP, "");
    appendf(J, "  },\n");
  }
  appendf(J, "  \"total_mismatches\": %d,\n", TotalMismatches);
  appendf(J,
          "  \"obs\": {\"trace_events\": %llu, \"trace_threads\": %llu, "
          "\"trace_dropped\": %llu, \"verify_tasks\": %llu},\n",
          static_cast<unsigned long long>(TS.Events),
          static_cast<unsigned long long>(TS.Threads),
          static_cast<unsigned long long>(TS.Dropped),
          static_cast<unsigned long long>(VerifyTasks));
  appendf(J,
          "  \"shape_ok\": %s,\n  \"golden_parity_ok\": %s,\n"
          "  \"default_parity_ok\": %s,\n  \"par_cell_bit_ok\": %s,\n",
          ShapeOk ? "true" : "false", GoldenParityOk ? "true" : "false",
          DefaultParityOk ? "true" : "false", ParCellBitOk ? "true" : "false");
  appendf(J,
          "  \"span_parity_ok\": %s,\n  \"wall_parity_ok\": %s,\n"
          "  \"counter_parity_ok\": %s,\n  \"trace_json_ok\": %s,\n"
          "  \"metrics_json_ok\": %s,\n",
          SpanParityOk ? "true" : "false", WallParityOk ? "true" : "false",
          CounterParityOk ? "true" : "false", TraceJsonOk ? "true" : "false",
          MetricsJsonOk ? "true" : "false");
  auto appendStoreRun = [&](const char *Name, const StoreRun &R) {
    appendf(J,
            "    \"%s\": {\"wall_ns\": %llu, \"stage_span_ns\": %llu, "
            "\"cache\": {\"hits\": %llu, \"misses\": %llu}, "
            "\"store\": {\"hits\": %llu, \"misses\": %llu, \"writes\": "
            "%llu, \"corrupt_skipped\": %llu, \"version_skipped\": "
            "%llu}},\n",
            Name, static_cast<unsigned long long>(R.WallNs),
            static_cast<unsigned long long>(R.StageNs),
            static_cast<unsigned long long>(R.Stats.Cache.Hits),
            static_cast<unsigned long long>(R.Stats.Cache.Misses),
            static_cast<unsigned long long>(R.Stats.Store.Hits),
            static_cast<unsigned long long>(R.Stats.Store.Misses),
            static_cast<unsigned long long>(R.Stats.Store.Writes),
            static_cast<unsigned long long>(R.Stats.Store.CorruptSkipped),
            static_cast<unsigned long long>(R.Stats.Store.VersionSkipped));
  };
  appendf(J, "  \"warm_start\": {\n");
  appendStoreRun("cold", ColdRun);
  appendStoreRun("warm", WarmRun);
  if (HavePersist)
    appendStoreRun("persistent", PersistRun);
  appendf(J,
          "    \"bit_identical_ok\": %s,\n    \"cold_ok\": %s,\n"
          "    \"warm_ok\": %s,\n    \"speed_ok\": %s,\n"
          "    \"arm_parity_ok\": %s,\n    \"persistent_ok\": %s\n  }",
          StoreBitOk ? "true" : "false", StoreColdOk ? "true" : "false",
          StoreWarmOk ? "true" : "false", StoreSpeedOk ? "true" : "false",
          StoreArmParityOk ? "true" : "false", PersistOk ? "true" : "false");
  bool JsonOk =
      writeBenchJson("bench_table3_equivalence", Opt, J, "BENCH_table3.json");

  // --trace/--metrics artifacts: the trace buffers still hold only the
  // default arm's spans (the other arms ran untraced); the metrics file
  // covers the whole run.
  obs::setTracingEnabled(TraceRequested);
  bool ObsOk = writeObsArtifacts(Opt);

  bool StoreOk = StoreBitOk && StoreColdOk && StoreWarmOk && StoreSpeedOk &&
                 StoreArmParityOk && PersistOk;

  return ShapeOk && GoldenParityOk && DefaultParityOk && ParCellBitOk &&
                 SpanParityOk && WallParityOk && CounterParityOk &&
                 TraceJsonOk && MetricsJsonOk && StoreOk && JsonOk && ObsOk
             ? 0
             : 1;
}
