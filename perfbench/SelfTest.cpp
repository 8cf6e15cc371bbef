//===- perfbench/SelfTest.cpp - the benchmark's own tests ------------------===//
//
//   perfbench_selftest <golden file>
//
// Pins the pieces the benchmark's numbers and verdict checks rest on: the
// tail-percentile rule, metric-name validation, the verdict oracle (it
// must catch a planted wrong Equivalent verdict), the golden parser, and
// the determinism of the request generators. Exits non-zero on any
// failure. perfbench/run.py --selftest builds and runs it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "tsvc/Suite.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace lv;
using namespace lv::perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("  %-64s %s\n", What, Ok ? "ok" : "FAILED");
  Failures += !Ok;
}

bool near(double A, double B, double Tol) { return std::abs(A - B) <= Tol; }

void testTail() {
  std::vector<double> V;
  for (int I = 1000; I >= 1; --I)
    V.push_back(I);
  Tail T = tailOf(V);
  check(T.Ok && T.Percentile == 90.0 && near(T.Value, 900.9, 0.5),
        "1000 samples: p90 (the ladder's top), value near 900.9");
  V.resize(100); // 1000..901
  T = tailOf(V);
  check(T.Ok && T.Percentile == 90.0 && T.Value > 985 && T.Value < 995,
        "100 samples: p90 (exactly 10 beyond)");
  V.resize(99); // 1000..902
  T = tailOf(V);
  check(T.Ok && T.Percentile == 75.0, "99 samples: p75 (p90 has 9 beyond)");
  V.resize(30);
  T = tailOf(V);
  check(T.Ok && T.Percentile == 50.0, "30 samples: p50 (p75 has 7 beyond)");
  V.clear();
  for (int I = 1; I <= 40; ++I)
    V.push_back(I);
  T = tailOf(V);
  check(T.Ok && T.Percentile == 75.0, "40 samples: p75 (exactly 10 beyond)");
  V.resize(19);
  check(!tailOf(V).Ok, "no tail with 19 samples (p50 has 9 beyond)");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
  std::vector<double> Sym;
  for (int I = 1; I <= 101; ++I)
    Sym.push_back(I);
  check(near(hdQuantile(Sym, 0.5), 51, 1e-9) &&
            near(hdQuantile({7, 7, 7}, 0.9), 7, 1e-9),
        "Harrell-Davis median of a symmetric sample is its centre");
  std::vector<double> Gap = {1, 1, 1, 1, 1, 1, 1, 10, 10, 10, 10, 10, 10, 10};
  std::vector<double> Shift = Gap;
  Shift[6] = 10; // one sample changes cluster
  double Step = hdQuantile(Shift, 0.5) - hdQuantile(Gap, 0.5);
  check(median(Shift) - median(Gap) == 4.5 && Step > 0 && Step < 2,
        "one rank change moves the HD median a little, the median a lot");
}

void testNames() {
  check(validMetricName("tasks_per_s") && validMetricName("smt.mprops_per_s") &&
            validMetricName("core.decided_alive2") &&
            validMetricName("a-b.c_9"),
        "benchmark metric names are valid");
  check(!validMetricName("") && !validMetricName("_x") &&
            !validMetricName("task latency") && !validMetricName("p99(ms)") &&
            !validMetricName(std::string(65, 'a')),
        "malformed metric names are rejected");
}

void testOracle() {
  const tsvc::TsvcTest *T = tsvc::findTest("s000");
  std::string Wrong = T->Source;
  Wrong.replace(Wrong.find("+ 1"), 3, "+ 2");
  svc::Request Q;
  Q.Name = "s000";
  Q.ScalarSource = T->Source;
  svc::Outcome O;
  O.Name = "s000";
  O.VerifyRan = true;
  O.Equiv.Final = core::EquivResult::Equivalent;
  O.Fsm.FinalCandidate = T->Source;
  std::vector<std::string> Notes;
  check(oracleViolations({Q}, {O}, 7, Notes) == 0,
        "oracle accepts a truly equivalent candidate");
  O.Fsm.FinalCandidate = Wrong;
  check(oracleViolations({Q}, {O}, 7, Notes) == 1 && !Notes.empty(),
        "oracle catches a planted wrong Equivalent verdict");
  O.Equiv.Final = core::EquivResult::Inequivalent;
  check(oracleViolations({Q}, {O}, 7, Notes) == 0,
        "oracle ignores the same candidate when refuted");
  O.Failed = true;
  check(oracleViolations({Q}, {O}, 7, Notes) == 1,
        "oracle counts a failed outcome");
}

void testGolden(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::map<std::string, GoldenVerdict> G;
  std::string Err;
  bool Parsed = In.is_open() && parseGolden(SS.str(), G, Err);
  check(Parsed, "golden file parses");
  bool Complete = G.size() == tsvc::suite().size();
  for (const tsvc::TsvcTest &T : tsvc::suite())
    Complete = Complete && G.count(T.Name);
  check(Complete, "golden covers every TSVC test exactly once");
  std::map<std::string, GoldenVerdict> Bad;
  check(!parseGolden("s000 equivalent\n", Bad, Err) &&
            !parseGolden("a x y\na x y\n", Bad, Err),
        "golden parser rejects short lines and duplicates");
  std::vector<std::string> Notes;
  GoldenVerdict Eq{"equivalent", "alive2-unroll"},
      Ne{"inequivalent", "checksum"}, Inc{"inconclusive", "none"};
  check(goldenFlip("x", Eq, Ne, Notes) && goldenFlip("x", Ne, Eq, Notes),
        "Equivalent<->Inequivalent is a flip");
  size_t Before = Notes.size();
  check(!goldenFlip("x", Inc, Eq, Notes) && Notes.size() == Before + 1,
        "Inconclusive->decided is listed, not failed");
  check(!goldenFlip("x", Eq, Eq, Notes) && Notes.size() == Before + 1,
        "an unchanged verdict is silent");
}

void testRequests() {
  auto Names = [](const std::vector<svc::Request> &R) {
    std::string S;
    for (const svc::Request &Q : R)
      S += Q.Name + ",";
    return S;
  };
  std::vector<svc::Request> A = funnelRequests(5, 0), B = funnelRequests(5, 0),
                            C = funnelRequests(6, 0), D = funnelRequests(5, 1);
  check(A.size() == 30 && Names(A) == Names(B) && A[0].Seed == B[0].Seed,
        "funnel requests are a function of the seed");
  check(Names(A) != Names(C) && A[0].Seed != C[0].Seed,
        "another seed changes order and LLM stream");
  check(Names(A) == Names(D) && A[0].Seed != D[0].Seed,
        "another round keeps the order and draws a new LLM stream");
  std::vector<svc::Request> S = sampleRequests(5, 2);
  check(S.size() == tsvc::suite().size() && S[0].SampleCount == SampleK &&
            S[0].Seed == 7,
        "sample-passk rounds use seed + round");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <golden file>\n");
    return 2;
  }
  testTail();
  testNames();
  testOracle();
  testGolden(Argv[1]);
  testRequests();
  std::printf("%s (%d failed)\n", Failures ? "FAILED" : "all passed",
              Failures);
  return Failures ? 1 : 0;
}
