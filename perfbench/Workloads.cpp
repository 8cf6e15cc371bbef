//===- perfbench/Workloads.cpp - funnel benchmark inputs and checks --------===//

#include "Workloads.h"

#include "compilers/Baselines.h"
#include "interp/Checksum.h"
#include "interp/Interp.h"
#include "minic/Parser.h"
#include "support/Rng.h"
#include "tsvc/Suite.h"
#include "vir/Compile.h"
#include "vir/Lower.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

using namespace lv;
using namespace lv::perfbench;

core::EquivConfig lv::perfbench::table3Config() {
  core::EquivConfig C;
  C.ScalarMax = 8;
  C.MaxTerms = 120'000;
  C.Alive2Budget = 500;
  C.CUnrollBudget = 2'000;
  C.SplitBudget = 300;
  return C;
}

static void shuffleBySeed(std::vector<svc::Request> &Reqs, uint64_t Seed) {
  Rng R(hashCombine(Seed, 0x0D3E5));
  for (size_t I = Reqs.size(); I > 1; --I)
    std::swap(Reqs[I - 1], Reqs[R.below(I)]);
}

static svc::Request pipelineRequest(const tsvc::TsvcTest &T,
                                    uint64_t LlmSeed) {
  svc::Request R;
  R.Name = T.Name;
  R.ScalarSource = T.Source;
  R.Mode = svc::RunMode::Pipeline;
  R.Equiv = table3Config();
  R.Seed = LlmSeed;
  return R;
}

std::vector<svc::Request> lv::perfbench::funnelRequests(uint64_t Seed,
                                                        int Round) {
  uint64_t LlmSeed = hashCombine(hashCombine(Seed, 0xF0AA1), Round);
  std::vector<svc::Request> Out;
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(FunnelStride, SIZE_MAX))
    Out.push_back(pipelineRequest(*T, LlmSeed));
  shuffleBySeed(Out, Seed);
  return Out;
}

std::vector<svc::Request> lv::perfbench::suiteRequests(uint64_t LlmSeed) {
  std::vector<svc::Request> Out;
  for (const tsvc::TsvcTest &T : tsvc::suite())
    Out.push_back(pipelineRequest(T, LlmSeed));
  return Out;
}

std::vector<svc::Request> lv::perfbench::sampleRequests(uint64_t Seed,
                                                        int Round) {
  std::vector<svc::Request> Out;
  for (const tsvc::TsvcTest &T : tsvc::suite()) {
    svc::Request R;
    R.Name = T.Name;
    R.ScalarSource = T.Source;
    R.Mode = svc::RunMode::Sample;
    R.SampleCount = SampleK;
    R.Seed = Seed + static_cast<uint64_t>(Round);
    Out.push_back(std::move(R));
  }
  shuffleBySeed(Out, Seed);
  return Out;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double lv::perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Continued fraction of the regularized incomplete beta function (modified
/// Lentz; Numerical Recipes' betacf).
static double betaContinuedFraction(double A, double B, double X) {
  const double Tiny = 1e-300;
  auto Guard = [&](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / Guard(1 - (A + B) * X / (A + 1)), H = D;
  for (int M = 1; M <= 10000; ++M) {
    double Even = M * (B - M) * X / ((A - 1 + 2 * M) * (A + 2 * M));
    D = 1 / Guard(1 + Even * D);
    C = Guard(1 + Even / C);
    H *= D * C;
    double Odd = -(A + M) * (A + B + M) * X / ((A + 2 * M) * (A + 1 + 2 * M));
    D = 1 / Guard(1 + Odd * D);
    C = Guard(1 + Odd / C);
    H *= D * C;
    if (std::fabs(D * C - 1) < 1e-14)
      break;
  }
  return H;
}

/// I_x(A, B), the regularized incomplete beta function.
static double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  double Front = std::exp(std::lgamma(A + B) - std::lgamma(A) -
                          std::lgamma(B) + A * std::log(X) +
                          B * std::log1p(-X));
  if (X < (A + 1) / (A + B + 2))
    return Front * betaContinuedFraction(A, B, X) / A;
  return 1 - Front * betaContinuedFraction(B, A, 1 - X) / B;
}

double lv::perfbench::hdQuantile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double N = static_cast<double>(V.size());
  const double A = P * (N + 1), B = (1 - P) * (N + 1);
  double Sum = 0, Prev = 0;
  for (size_t I = 1; I <= V.size(); ++I) {
    double Cur = incompleteBeta(A, B, static_cast<double>(I) / N);
    Sum += (Cur - Prev) * V[I - 1];
    Prev = Cur;
  }
  return Sum;
}

Tail lv::perfbench::tailOf(std::vector<double> V, size_t Beyond) {
  Tail T;
  const double N = static_cast<double>(V.size());
  for (double P : {90.0, 75.0, 50.0}) {
    // Samples strictly above the nearest-rank position ceil(P% * N).
    size_t Rank = static_cast<size_t>(std::ceil(P / 100 * N - 1e-9));
    if (Rank == 0 || V.size() - Rank < Beyond)
      continue;
    T.Value = hdQuantile(V, P / 100);
    T.Percentile = P;
    T.Ok = true;
    return T;
  }
  return T;
}

bool lv::perfbench::validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum(static_cast<unsigned char>(Name[0])))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '.' && C != '-')
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Verdict oracle
//===----------------------------------------------------------------------===//

std::string lv::perfbench::independentChecksum(const std::string &Scalar,
                                               const std::string &Candidate,
                                               uint64_t Seed) {
  vir::CompileResult S = vir::compileFunction(Scalar);
  vir::CompileResult V = vir::compileFunction(Candidate);
  if (!S.ok() || !V.ok())
    return "does not compile: " + (S.ok() ? V.Error : S.Error);
  interp::ChecksumConfig Cfg;
  Cfg.Seed = hashCombine(Seed, 0x0AC1E);  // never the funnel's 0x5eed
  Cfg.RunsPerN = 4;                       // twice the funnel's input sets
  Cfg.NValues = {0, 8, 16, 64, 128, 256}; // plus two extra bounds
  interp::ChecksumOutcome O = interp::runChecksumTest(*S.Fn, *V.Fn, Cfg);
  if (O.plausible())
    return "";
  std::string Why = O.Detail;
  if (!O.FirstMismatch.Where.empty())
    Why += " at " + O.FirstMismatch.Where + " (n=" +
           std::to_string(O.FirstMismatch.N) + ")";
  return Why.empty() ? "independent checksum failed" : Why;
}

size_t lv::perfbench::oracleViolations(const std::vector<svc::Request> &Reqs,
                                       const std::vector<svc::Outcome> &Outs,
                                       uint64_t Seed,
                                       std::vector<std::string> &Notes) {
  size_t Bad = 0;
  for (size_t I = 0; I < Outs.size() && I < Reqs.size(); ++I) {
    const svc::Outcome &O = Outs[I];
    if (O.Failed) {
      ++Bad;
      Notes.push_back(O.Name + ": task failed (" +
                      svc::failureKindName(O.Failure) + "): " + O.Error);
      continue;
    }
    if (!O.verified())
      continue;
    const std::string &Cand = Reqs[I].Mode == svc::RunMode::Verify
                                  ? Reqs[I].CandidateSource
                                  : O.Fsm.FinalCandidate;
    std::string Why = independentChecksum(Reqs[I].ScalarSource, Cand, Seed);
    if (!Why.empty()) {
      ++Bad;
      Notes.push_back(O.Name + ": Equivalent verdict fails the independent "
                               "checksum: " + Why);
    }
  }
  return Bad;
}

//===----------------------------------------------------------------------===//
// Verdict golden
//===----------------------------------------------------------------------===//

bool lv::perfbench::parseGolden(const std::string &Text,
                                std::map<std::string, GoldenVerdict> &Out,
                                std::string &Err) {
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    std::istringstream LS(Line);
    std::string Name, Final, By, Extra;
    if (!(LS >> Name))
      continue;
    if (!(LS >> Final >> By) || (LS >> Extra)) {
      Err = "line " + std::to_string(LineNo) + ": want `name final stage`";
      return false;
    }
    if (!Out.emplace(Name, GoldenVerdict{Final, By}).second) {
      Err = "line " + std::to_string(LineNo) + ": duplicate " + Name;
      return false;
    }
  }
  return true;
}

GoldenVerdict lv::perfbench::goldenOf(const svc::Outcome &O) {
  if (!O.VerifyRan)
    return {"none", core::stageName(core::Stage::None)};
  return {core::outcomeName(O.Equiv.Final), core::stageName(O.Equiv.DecidedBy)};
}

std::string lv::perfbench::renderGolden(const std::vector<svc::Outcome> &Outs) {
  std::string S;
  for (const svc::Outcome &O : Outs) {
    GoldenVerdict G = goldenOf(O);
    S += O.Name + " " + G.Final + " " + G.DecidedBy + "\n";
  }
  return S;
}

bool lv::perfbench::goldenFlip(const std::string &Name,
                               const GoldenVerdict &Want,
                               const GoldenVerdict &Got,
                               std::vector<std::string> &Notes) {
  if (Want.Final == Got.Final && Want.DecidedBy == Got.DecidedBy)
    return false;
  const char *Eq = core::outcomeName(core::EquivResult::Equivalent);
  const char *Ne = core::outcomeName(core::EquivResult::Inequivalent);
  bool Flip = (Want.Final == Eq && Got.Final == Ne) ||
              (Want.Final == Ne && Got.Final == Eq);
  Notes.push_back(std::string(Flip ? "golden FLIP " : "golden change ") +
                  Name + ": " + Want.Final + "/" + Want.DecidedBy + " -> " +
                  Got.Final + "/" + Got.DecidedBy);
  return Flip;
}

//===----------------------------------------------------------------------===//
// Modeled speedup
//===----------------------------------------------------------------------===//

/// Modeled cycles for one function on a fixed N=2048 workload (the
/// bench_fig6_speedup measurement).
static double modeledCycles(const minic::Function &F) {
  const int N = 2048;
  vir::LowerResult L = vir::lowerToVIR(F);
  if (!L.ok())
    return -1;
  interp::CostModel CM;
  interp::ExecConfig Cfg;
  Cfg.Costs = &CM;
  interp::MemoryImage Mem;
  Rng R(99);
  for (size_t I = 0; I < L.Fn->Memories.size(); ++I) {
    std::vector<int32_t> Buf(static_cast<size_t>(N + 64));
    for (int32_t &V : Buf)
      V = R.rangeInt(-100, 100);
    Mem.Regions.push_back(std::move(Buf));
  }
  std::vector<int32_t> Args;
  for (const vir::VParam &P : L.Fn->Params)
    if (!P.IsPointer)
      Args.push_back(P.Name == "n" ? N : 3);
  interp::ExecResult E = interp::execute(*L.Fn, Args, Mem, Cfg);
  return E.ok() ? E.Cycles : -1;
}

double lv::perfbench::speedupOverBestBaseline(const std::string &Scalar,
                                              const std::string &Candidate) {
  minic::ParseResult SP = minic::parseFunction(Scalar);
  minic::ParseResult VP = minic::parseFunction(Candidate);
  if (!SP.ok() || !VP.ok())
    return -1;
  double Llm = modeledCycles(*VP.Fn);
  if (Llm <= 0)
    return -1;
  double Best = -1;
  for (auto C : {compilers::CompilerId::GCC, compilers::CompilerId::Clang,
                 compilers::CompilerId::ICC}) {
    compilers::CompileOutcome O = compilers::compileWith(C, *SP.Fn);
    double Cycles = modeledCycles(*O.Code) * O.CycleFactor;
    if (Cycles > 0 && (Best < 0 || Cycles < Best))
      Best = Cycles;
  }
  return Best > 0 ? Best / Llm : -1;
}
