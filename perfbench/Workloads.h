//===- perfbench/Workloads.h - funnel benchmark inputs and checks -*- C++ -*-===//
///
/// \file
/// What the benchmark binary and its self-test share: the request
/// generators for the three workloads, the verdict oracle, the verdict
/// golden, the modeled-speedup computation, and the small statistics the
/// metrics are built from. Everything here is a pure function of its
/// arguments, so the self-test can pin it.
///
//===----------------------------------------------------------------------===//

#ifndef LV_PERFBENCH_WORKLOADS_H
#define LV_PERFBENCH_WORKLOADS_H

#include "svc/Service.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lv {
namespace perfbench {

/// The LLM seed of the verdict golden (the paper-reproduction default).
inline constexpr uint64_t GoldenSeed = 0xC60;

/// Every `suiteSample` stride-th TSVC test forms the funnel request set.
/// Stride 5 (30 tests) fits one Algorithm-1 pass into a run and keeps the
/// suite's stage mix; the slice is blind to cost.
inline constexpr size_t FunnelStride = 5;

/// Completions per test in sample-passk (Fig. 5's K).
inline constexpr int SampleK = 100;

/// The Table-3 Algorithm-1 configuration the paper reproduction uses.
core::EquivConfig table3Config();

/// Pipeline requests over the funnel slice. The LLM stream is a function
/// of (Seed, Round); the submission order is a function of Seed.
std::vector<svc::Request> funnelRequests(uint64_t Seed, int Round);

/// Pipeline requests over the whole suite at \p LlmSeed, in suite order.
std::vector<svc::Request> suiteRequests(uint64_t LlmSeed);

/// Sample-mode requests (K completions each) over all 149 tests. Round r
/// draws its completions from LLM seed Seed + r; the order is a function
/// of Seed.
std::vector<svc::Request> sampleRequests(uint64_t Seed, int Round);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);

/// The Harrell-Davis estimate of quantile \p P (0..1): a weighted mean of
/// all order statistics with Beta(P(n+1), (1-P)(n+1)) weights. Unlike the
/// sample quantile it moves smoothly when one sample changes rank, which
/// matters when a few dozen latencies fall into a handful of cost clusters.
double hdQuantile(std::vector<double> V, double P);

/// The highest of the percentiles p90, p75, p50 that still has at least
/// \p Beyond samples above its nearest-rank position, with its
/// Harrell-Davis value. Ok is false when not even p50 qualifies (fewer than
/// 2 * Beyond samples). The ladder stops at p90: on a shared host the
/// slowest few percent of sub-millisecond tasks are set by scheduling
/// jitter and by which test the seed made slowest, not by the program
/// (funnel-warm over five seeds: p90 0.49-0.76 ms, p95 0.65-1.37 ms, p99
/// 0.81-1.75 ms).
struct Tail {
  double Value = 0;
  double Percentile = 0;
  bool Ok = false;
};
Tail tailOf(std::vector<double> V, size_t Beyond = 10);

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
bool validMetricName(const std::string &Name);

//===----------------------------------------------------------------------===//
// Verdict oracle
//===----------------------------------------------------------------------===//

/// Re-tests \p Candidate against \p Scalar with interp::runChecksumTest
/// under a checksum seed and input-set count the funnel never uses.
/// Returns "" when the candidate passes, else why it does not.
std::string independentChecksum(const std::string &Scalar,
                                const std::string &Candidate, uint64_t Seed);

/// Checks one batch of outcomes: no Outcome.Failed, and every Equivalent
/// candidate passes independentChecksum. Each violation appends a line to
/// \p Notes; the return value is the number of violations.
size_t oracleViolations(const std::vector<svc::Request> &Reqs,
                        const std::vector<svc::Outcome> &Outs, uint64_t Seed,
                        std::vector<std::string> &Notes);

//===----------------------------------------------------------------------===//
// Verdict golden
//===----------------------------------------------------------------------===//

struct GoldenVerdict {
  std::string Final;     ///< core::outcomeName, or "none" (no Algorithm 1).
  std::string DecidedBy; ///< core::stageName.
};

/// Parses `name final decided-by` lines ('#' starts a comment). Returns
/// false (with \p Err) on a malformed line or a duplicate name.
bool parseGolden(const std::string &Text,
                 std::map<std::string, GoldenVerdict> &Out, std::string &Err);

GoldenVerdict goldenOf(const svc::Outcome &O);
std::string renderGolden(const std::vector<svc::Outcome> &Outs);

/// Compares one outcome with its golden entry. A flip between Equivalent
/// and Inequivalent is a failure (returns true); any other difference is
/// only listed in \p Notes.
bool goldenFlip(const std::string &Name, const GoldenVerdict &Want,
                const GoldenVerdict &Got, std::vector<std::string> &Notes);

//===----------------------------------------------------------------------===//
// Modeled speedup (as bench_fig6_speedup computes it)
//===----------------------------------------------------------------------===//

/// Speedup of \p Candidate over the best of the GCC/Clang/ICC baselines
/// compiled from \p Scalar, in modeled cycles at N=2048. <= 0 when either
/// side cannot be measured.
double speedupOverBestBaseline(const std::string &Scalar,
                               const std::string &Candidate);

} // namespace perfbench
} // namespace lv

#endif // LV_PERFBENCH_WORKLOADS_H
