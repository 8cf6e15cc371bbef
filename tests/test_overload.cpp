//===- tests/test_overload.cpp - admission, shedding, breaker, journal --------===//
//
// The overload-safety contract (src/svc/README.md "Overload & recovery"):
// (1) the bounded admission queue sheds deterministically by priority —
// the shed set is a pure function of batch content, identical at any
// worker count; (2) blocking admission never deadlocks against the
// workers and sheds only on its own deadline; (3) every shed or rejected
// task is a classified Outcome (FailureKind::Shed) that is never cached
// or journaled; (4) admission slots are released exactly once, even when
// the task body throws; (5) the circuit breaker walks its counter-based
// state machine and rejected calls classify like fast-failing endpoints;
// (6) hedged runs are bit-identical to unhedged ones on a fault-free
// backend; (7) the crash-recovery journal replays completed tasks across
// a process boundary byte-identically and re-runs only the remainder;
// (8) drain() settles every task and cancellation propagates into the
// SplitCellWorkers fan-out threads.
//
//===----------------------------------------------------------------------===//

#include "llm/Chaos.h"
#include "store/Journal.h"
#include "support/Breaker.h"
#include "svc/Service.h"
#include "tsvc/Suite.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace lv;
using namespace lv::svc;

namespace {

/// Small budgets: these tests exercise serving plumbing, not verdict
/// power (mirrors tests/test_chaos.cpp).
interp::ChecksumConfig fastChecksum() {
  interp::ChecksumConfig C;
  C.RunsPerN = 1;
  C.NValues = {0, 8, 32};
  C.BufferLen = 128;
  return C;
}

core::EquivConfig fastEquiv() {
  core::EquivConfig Cfg;
  Cfg.Checksum = fastChecksum();
  Cfg.ScalarMax = 4;
  Cfg.MaxTerms = 30'000;
  Cfg.Alive2Budget = 100;
  Cfg.CUnrollBudget = 200;
  Cfg.SplitBudget = 50;
  return Cfg;
}

std::vector<Request> pipelineBatch(int N) {
  std::vector<Request> Out;
  // Stride chosen so the sample pool is comfortably larger than any batch
  // these tests request (stride 40 yields only 4 tests from the suite).
  for (const tsvc::TsvcTest *T : tsvc::suiteSample(9, N)) {
    Request R;
    R.Mode = RunMode::Pipeline;
    R.Name = T->Name;
    R.ScalarSource = T->Source;
    R.Fsm.MaxAttempts = 2;
    R.Fsm.Checksum = fastChecksum();
    R.Equiv = fastEquiv();
    Out.push_back(std::move(R));
  }
  return Out;
}

/// Names of the batch's shed outcomes, in ticket order.
std::vector<std::string> shedNames(VectorizerService &S,
                                   const std::vector<Ticket> &Tickets) {
  std::vector<std::string> Out;
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    if (O.Failure == FailureKind::Shed)
      Out.push_back(O.Name);
  }
  return Out;
}

std::filesystem::path tempDir(const char *Leaf) {
  std::filesystem::path P = std::filesystem::temp_directory_path() / Leaf;
  std::error_code EC;
  std::filesystem::remove_all(P, EC);
  return P;
}

//===----------------------------------------------------------------------===//
// Admission control + deterministic shedding
//===----------------------------------------------------------------------===//

TEST(Admission, PriorityEvictionIsExact) {
  // Queue depth 1, one worker, ascending priorities: each later submission
  // strictly beats the queued weakest, so only the last survives the
  // queue. (The whole batch is admitted under one lock hold, so no worker
  // can drain the queue mid-admission.)
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 1;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(3);
  std::string Last = B[2].Name;
  for (size_t I = 0; I < B.size(); ++I)
    B[I].Priority = static_cast<int>(I);
  std::vector<Ticket> Tickets = S.submitBatch(std::move(B));
  std::vector<std::string> Shed = shedNames(S, Tickets);
  ASSERT_EQ(Shed.size(), 2u);
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    if (O.Name == Last) {
      EXPECT_FALSE(O.Failed) << "highest priority survives";
      EXPECT_NE(O.Failure, FailureKind::Shed);
    } else {
      EXPECT_TRUE(O.Failed);
      EXPECT_EQ(O.Failure, FailureKind::Shed);
      EXPECT_NE(O.Error.find("shed:"), std::string::npos);
    }
  }
  EXPECT_EQ(S.resilienceStats().Shed, 2u);
}

TEST(Admission, EqualPriorityKeepsTheEarlierSubmission) {
  // Ties: an incoming task must STRICTLY beat the queued weakest, so with
  // equal priorities the incumbent stays and the newcomers shed.
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 1;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(3);
  std::string First = B[0].Name;
  std::vector<Ticket> Tickets = S.submitBatch(std::move(B));
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    if (O.Name == First)
      EXPECT_FALSE(O.Failed);
    else
      EXPECT_EQ(O.Failure, FailureKind::Shed);
  }
}

TEST(Admission, ShedSetIsWorkerCountInvariant) {
  auto runAt = [](int Workers) {
    ServiceConfig SC;
    SC.Workers = Workers;
    SC.MaxQueueDepth = 2;
    VectorizerService S(SC);
    std::vector<Request> B = pipelineBatch(6);
    for (size_t I = 0; I < B.size(); ++I)
      B[I].Priority = static_cast<int>(I % 3);
    std::vector<Ticket> Tickets = S.submitBatch(std::move(B));
    return shedNames(S, Tickets);
  };
  std::vector<std::string> One = runAt(1);
  EXPECT_EQ(One.size(), 4u) << "6 tasks into depth 2: exactly 4 shed";
  EXPECT_EQ(runAt(2), One);
  EXPECT_EQ(runAt(8), One);
}

TEST(Admission, ShedOutcomesAreNeverCached) {
  // A shed task must not poison the verdict cache: rerunning the same
  // request on an unloaded service produces a real verdict with no hit.
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 1;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(2);
  Request Again = B[1]; // will shed (equal priority, later submission)
  std::vector<Ticket> Tickets = S.submitBatch(std::move(B));
  const Outcome &ShedO = S.wait(Tickets[1]);
  ASSERT_EQ(ShedO.Failure, FailureKind::Shed);
  S.wait(Tickets[0]); // free the queue slot before resubmitting

  const Outcome &Rerun = S.wait(S.submit(std::move(Again)));
  EXPECT_FALSE(Rerun.Failed);
  EXPECT_FALSE(Rerun.VerdictCacheHit);
}

TEST(Admission, BlockPolicyNeverSheds) {
  ServiceConfig SC;
  SC.Workers = 2;
  SC.MaxQueueDepth = 1;
  SC.Admission = ServiceConfig::AdmissionPolicy::Block;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(6));
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    EXPECT_FALSE(O.Failed) << O.Name << ": " << O.Error;
  }
  EXPECT_EQ(S.resilienceStats().Shed, 0u);
}

TEST(Admission, BlockDeadlineShedsWhenTheQueueStaysFull) {
  // One worker parked on a 5s injected-latency task, queue depth 1
  // already full: a third submission with a 2ms admission deadline must
  // shed instead of blocking forever.
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 1;
  SC.Admission = ServiceConfig::AdmissionPolicy::Block;
  SC.AdmissionBlockNanos = 2'000'000;
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 5'000'000'000ULL;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(3);
  for (Request &R : B)
    R.DeadlineNanos = 100'000'000; // latency sleeps cancel at the deadline
  Ticket T0 = S.submit(std::move(B[0]));
  // Give the worker time to dequeue task 0, so task 1 owns the queue slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Ticket T1 = S.submit(std::move(B[1]));
  Ticket T2 = S.submit(std::move(B[2]));
  EXPECT_EQ(S.wait(T2).Failure, FailureKind::Shed)
      << "block deadline expired while the queue stayed full";
  // The earlier two settle normally (timed out by their own deadline).
  S.wait(T0);
  S.wait(T1);
}

TEST(Admission, WaitBatchForReportsPerTaskStatus) {
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 1;
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 300'000'000;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(2));
  // Task 1 shed instantly; task 0 still sleeping on injected latency.
  std::vector<VectorizerService::TaskStatus> St =
      S.waitBatchFor(Tickets, 1'000'000);
  ASSERT_EQ(St.size(), 2u);
  EXPECT_EQ(St[0].State, VectorizerService::TaskState::Pending);
  EXPECT_EQ(St[0].Out, nullptr);
  EXPECT_EQ(St[1].State, VectorizerService::TaskState::Shed);
  ASSERT_NE(St[1].Out, nullptr);
  EXPECT_EQ(St[1].Out->Failure, FailureKind::Shed);

  const Outcome *Done = S.waitFor(Tickets[0], 60'000'000'000ULL);
  ASSERT_NE(Done, nullptr);
  St = S.waitBatchFor(Tickets, 0);
  EXPECT_EQ(St[0].State, VectorizerService::TaskState::Done);
  EXPECT_EQ(St[0].Out, Done);
}

//===----------------------------------------------------------------------===//
// Slot release (satellite: exactly once, even for throwing tasks)
//===----------------------------------------------------------------------===//

TEST(Admission, ThrowingTasksReleaseTheirSlotExactlyOnce) {
  // Every client call throws a non-client exception: each task fails
  // Internal. With MaxInflight=1 and queue depth 1 under Block policy,
  // losing a single slot would wedge the service — all six tasks
  // completing proves each slot was released exactly once.
  ServiceConfig SC;
  SC.Workers = 2;
  SC.MaxInflight = 1;
  SC.MaxQueueDepth = 1;
  SC.Admission = ServiceConfig::AdmissionPolicy::Block;
  SC.MakeClient = [](uint64_t) -> std::unique_ptr<llm::LLMClient> {
    class Bomb : public llm::LLMClient {
      llm::Completion complete(const llm::Prompt &, uint64_t) override {
        throw std::runtime_error("boom");
      }
    };
    return std::make_unique<Bomb>();
  };
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(6));
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    EXPECT_TRUE(O.Failed);
    EXPECT_EQ(O.Failure, FailureKind::Internal);
  }
  // drain() waits on Inflight == 0: a leaked slot would hang here.
  VectorizerService::DrainResult DR = S.drain(0);
  EXPECT_EQ(DR.Cancelled, 0u);
  EXPECT_EQ(DR.Shed, 0u);
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

TEST(Breaker, CounterStateMachine) {
  support::BreakerConfig C;
  C.Enabled = true;
  C.TripFailures = 3;
  C.OpenRejects = 2;
  support::CircuitBreaker B(C);
  using St = support::CircuitBreaker::State;

  // Closed: admits; trips after TripFailures consecutive failures.
  for (int I = 0; I < 3; ++I) {
    EXPECT_TRUE(B.admit());
    B.onFailure();
  }
  EXPECT_EQ(B.state(), St::Open);
  EXPECT_EQ(B.stats().Trips, 1u);

  // Open: rejects OpenRejects times, then the next admission is the probe.
  EXPECT_FALSE(B.admit());
  EXPECT_TRUE(B.admit()) << "second rejection reaches the probe threshold";
  EXPECT_EQ(B.state(), St::HalfOpen);
  EXPECT_EQ(B.stats().Probes, 1u);

  // HalfOpen: only one probe in flight.
  EXPECT_FALSE(B.admit());
  // Probe failure reopens.
  B.onFailure();
  EXPECT_EQ(B.state(), St::Open);
  EXPECT_EQ(B.stats().Trips, 2u);

  // Ride to the next probe; success recloses and resets the streak.
  EXPECT_FALSE(B.admit());
  EXPECT_TRUE(B.admit());
  B.onSuccess();
  EXPECT_EQ(B.state(), St::Closed);
  EXPECT_EQ(B.stats().Reclosed, 1u);

  // A success in Closed resets the consecutive-failure count.
  EXPECT_TRUE(B.admit());
  B.onFailure();
  EXPECT_TRUE(B.admit());
  B.onSuccess();
  EXPECT_TRUE(B.admit());
  B.onFailure();
  EXPECT_EQ(B.state(), St::Closed) << "streak was reset by the success";
}

TEST(Breaker, AbandonedProbeFreesTheSlot) {
  support::BreakerConfig C;
  C.Enabled = true;
  C.TripFailures = 1;
  C.OpenRejects = 1;
  support::CircuitBreaker B(C);
  EXPECT_TRUE(B.admit());
  B.onFailure(); // Open
  EXPECT_TRUE(B.admit()) << "OpenRejects=1: the first open-state call probes";
  EXPECT_FALSE(B.admit()) << "only one probe in flight at a time";
  B.onAbandoned(); // e.g. cancelled before the backend answered
  EXPECT_TRUE(B.admit()) << "the probe slot must be reusable";
}

TEST(Breaker, DisabledBreakerIsInert) {
  support::CircuitBreaker B; // default config: disabled
  for (int I = 0; I < 100; ++I) {
    EXPECT_TRUE(B.admit());
    B.onFailure();
  }
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_EQ(B.stats().Admitted, 0u) << "disabled breaker counts nothing";
}

TEST(Breaker, ServiceTripsUnderSustainedFaultsAndClassifies) {
  ServiceConfig SC;
  SC.Workers = 1;
  SC.ClientRetries = 1;
  SC.Chaos.TransientRate = 1.0; // every backend call faults
  SC.Breaker.Enabled = true;
  SC.Breaker.TripFailures = 2;
  SC.Breaker.OpenRejects = 2;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(4));
  for (Ticket T : Tickets) {
    const Outcome &O = S.wait(T);
    EXPECT_TRUE(O.Failed);
    EXPECT_EQ(O.Failure, FailureKind::ClientTransient)
        << "breaker rejections classify like fast-failing transients";
  }
  support::BreakerStats BS = S.breakerStats();
  EXPECT_GT(BS.Trips, 0u);
  EXPECT_GT(BS.Rejected, 0u);
}

TEST(Breaker, HedgedRunIsBitIdenticalWithoutFaults) {
  auto runWith = [](uint64_t HedgeAfterCalls) {
    ServiceConfig SC;
    SC.Workers = 2;
    SC.HedgeAfterCalls = HedgeAfterCalls;
    VectorizerService S(SC);
    std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(3));
    std::vector<std::string> Out;
    for (Ticket T : Tickets)
      Out.push_back(debugString(S.wait(T)));
    return Out;
  };
  EXPECT_EQ(runWith(0), runWith(1))
      << "hedging must change latency, never content";
}

//===----------------------------------------------------------------------===//
// Crash-recovery batch journal
//===----------------------------------------------------------------------===//

TEST(Journal, OutcomeSerializationRoundTrips) {
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);
  std::vector<Request> B = pipelineBatch(1);
  Outcome Original = S.wait(S.submit(std::move(B[0])));

  std::string Bytes = serializeOutcome(Original);
  Outcome Back;
  ASSERT_TRUE(deserializeOutcome(Bytes, Back));
  EXPECT_EQ(debugString(Back), debugString(Original));
  EXPECT_EQ(Back.ChecksumWork.InputSets, Original.ChecksumWork.InputSets);
  EXPECT_EQ(Back.ChecksumWork.Instrs, Original.ChecksumWork.Instrs);
  EXPECT_EQ(Back.Alive2Work.Conflicts, Original.Alive2Work.Conflicts);
  EXPECT_EQ(Back.Retries, Original.Retries);

  // Truncation at any prefix must fail the decode, not mis-parse.
  for (size_t Cut : {size_t(0), Bytes.size() / 2, Bytes.size() - 1}) {
    Outcome Junk;
    EXPECT_FALSE(deserializeOutcome(Bytes.substr(0, Cut), Junk));
  }
}

TEST(Journal, ReplaysAcrossProcessBoundary) {
  std::filesystem::path Dir = tempDir("lv_test_journal_replay");
  std::vector<std::string> FirstRun;
  {
    ServiceConfig SC;
    SC.Workers = 2;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(4));
    for (Ticket T : Tickets) {
      const Outcome &O = S.wait(T);
      EXPECT_FALSE(O.Failed);
      EXPECT_FALSE(O.JournalReplayed);
      FirstRun.push_back(debugString(O));
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 0u);
  }
  {
    // "Restart": a fresh service on the same journal directory.
    ServiceConfig SC;
    SC.Workers = 2;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(4));
    for (size_t I = 0; I < Tickets.size(); ++I) {
      const Outcome &O = S.wait(Tickets[I]);
      EXPECT_TRUE(O.JournalReplayed) << O.Name;
      EXPECT_EQ(debugString(O), FirstRun[I])
          << "replayed outcome must be byte-identical";
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 4u);
    ASSERT_NE(S.journal(), nullptr);
    EXPECT_EQ(S.journal()->stats().LoadedDone, 4u);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Journal, ServingConfigChangeInvalidatesReplay) {
  // The journal task key folds in the serving-policy salt: a run with a
  // different chaos schedule must not replay outcomes recorded without
  // one (they could legitimately differ in retries/failures).
  std::filesystem::path Dir = tempDir("lv_test_journal_salt");
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      S.wait(T);
  }
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    SC.Chaos.TransientCallScript = {0}; // different serving policy
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2))) {
      const Outcome &O = S.wait(T);
      EXPECT_FALSE(O.JournalReplayed)
          << "different serving salt must miss the journal";
    }
    EXPECT_EQ(S.resilienceStats().JournalReplayed, 0u);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Journal, OldSchemaJournalIsSetAside) {
  // A journal written under the previous schema carries Outcome payloads
  // in the old wire layout: it must be set aside, never replayed.
  ASSERT_GT(store::BatchJournal::SchemaVersion, 1u);
  std::filesystem::path Dir = tempDir("lv_test_journal_schema");
  {
    store::BatchJournal J(Dir.string());
    J.recordDone(7, "verify", "payload");
  }
  std::string Log = (Dir / "journal.log").string();
  std::string Bytes;
  {
    std::FILE *F = std::fopen(Log.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Bytes.append(Buf, N);
    std::fclose(F);
  }
  ASSERT_GT(Bytes.size(), 8u);
  Bytes[4] = 1; // u32 SchemaVersion, little-endian
  Bytes[5] = Bytes[6] = Bytes[7] = 0;
  {
    std::FILE *F = std::fopen(Log.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fwrite(Bytes.data(), 1, Bytes.size(), F);
    std::fclose(F);
  }
  store::BatchJournal J(Dir.string());
  EXPECT_EQ(J.stats().VersionSkipped, 1u);
  EXPECT_EQ(J.stats().LoadedDone, 0u);
  EXPECT_TRUE(J.ok());
  EXPECT_TRUE(std::filesystem::exists(Log + ".skipped"));
  std::string Payload;
  EXPECT_FALSE(J.lookupDone(7, "verify", Payload));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(Journal, TornTailIsTruncatedAndReplaySurvives) {
  std::filesystem::path Dir = tempDir("lv_test_journal_torn");
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      EXPECT_FALSE(S.wait(T).Failed);
  }
  // Simulate a crash mid-append: a torn half-record at the tail.
  {
    std::FILE *F =
        std::fopen((Dir / "journal.log").string().c_str(), "ab");
    ASSERT_NE(F, nullptr);
    const char Garbage[] = "LVRCtorn-frame";
    std::fwrite(Garbage, 1, sizeof(Garbage), F);
    std::fclose(F);
  }
  {
    ServiceConfig SC;
    SC.Workers = 1;
    SC.JournalPath = Dir.string();
    VectorizerService S(SC);
    ASSERT_NE(S.journal(), nullptr);
    EXPECT_TRUE(S.journal()->ok());
    EXPECT_EQ(S.journal()->stats().LoadedDone, 2u)
        << "records before the torn tail survive";
    for (Ticket T : S.submitBatch(pipelineBatch(2)))
      EXPECT_TRUE(S.wait(T).JournalReplayed);
  }
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// Graceful drain + cancellation propagation
//===----------------------------------------------------------------------===//

TEST(Drain, SettlesEveryTaskAndShedsLateAdmissions) {
  ServiceConfig SC;
  SC.Workers = 1;
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 10'000'000'000ULL; // parks every task 10s
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(3));
  // Let the worker park on task 0's cancellable latency sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  VectorizerService::DrainResult DR = S.drain(/*DeadlineNanos=*/0);
  EXPECT_EQ(DR.Cancelled, 1u) << "the in-flight task was cancelled";
  EXPECT_EQ(DR.Shed, 2u) << "queued tasks were shed";
  std::vector<VectorizerService::TaskStatus> St = S.waitBatchFor(Tickets, 0);
  ASSERT_NE(St[0].Out, nullptr);
  EXPECT_EQ(St[0].Out->Failure, FailureKind::TimedOut);
  for (size_t I = 1; I < St.size(); ++I) {
    EXPECT_EQ(St[I].State, VectorizerService::TaskState::Shed);
    ASSERT_NE(St[I].Out, nullptr);
    EXPECT_NE(St[I].Out->Error.find("drain"), std::string::npos);
  }
  // Post-drain admissions shed immediately.
  std::vector<Request> More = pipelineBatch(1);
  const Outcome &Late = S.wait(S.submit(std::move(More[0])));
  EXPECT_EQ(Late.Failure, FailureKind::Shed);
  EXPECT_NE(Late.Error.find("draining"), std::string::npos);
}

TEST(Drain, GracePeriodLetsWorkFinish) {
  ServiceConfig SC;
  SC.Workers = 2;
  // DrainResult::Completed counts only tasks that finish after drain()
  // starts; without a delay a loaded host can finish one before the call
  // and the count reads 1. Each LLM call sleeps 0.5 s, well inside the
  // grace.
  SC.Chaos.LatencyRate = 1.0;
  SC.Chaos.LatencyNanos = 500'000'000ULL;
  VectorizerService S(SC);
  std::vector<Ticket> Tickets = S.submitBatch(pipelineBatch(2));
  VectorizerService::DrainResult DR = S.drain(60'000'000'000ULL);
  EXPECT_EQ(DR.Completed + 0u, 2u) << "fast tasks finish inside the grace";
  EXPECT_EQ(DR.Cancelled, 0u);
  EXPECT_EQ(DR.Shed, 0u);
  for (Ticket T : Tickets)
    EXPECT_FALSE(S.wait(T).Failed);
}

TEST(Drain, CancelPropagatesIntoSplitCellWorkers) {
  // Starve stages 2-3 so the verify falls through to spatial splitting
  // with a 4-way cell fan-out and a budget far beyond what drain allows:
  // the fan-out threads poll the task token captured before the spawn
  // (tv/Refine.cpp checkCells), so drain's requestCancel must unwind them
  // promptly into a classified TimedOut outcome. A hang here means the
  // token did not propagate.
  const char *Scalar =
      "void f(int n, int *a, int *b) { for (int i = 0; i < n; i++) "
      "a[i] = b[i] + 1; }";
  const char *Vec = R"(
      void f(int n, int *a, int *b) {
        __m256i one = _mm256_set1_epi32(1);
        for (int i = 0; i < n; i += 8) {
          __m256i v = _mm256_loadu_si256((__m256i *)&b[i]);
          _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(v, one));
        }
      })";
  ServiceConfig SC;
  SC.Workers = 1;
  VectorizerService S(SC);
  Request R;
  R.Mode = RunMode::Verify;
  R.Name = "split_cancel";
  R.ScalarSource = Scalar;
  R.CandidateSource = Vec;
  R.Equiv = fastEquiv();
  R.Equiv.Alive2Budget = 1;
  R.Equiv.CUnrollBudget = 1;
  R.Equiv.SplitBudget = 50'000;
  R.Equiv.MaxTerms = 200'000;
  R.Equiv.SplitCellWorkers = 4;
  Ticket T = S.submit(std::move(R));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  VectorizerService::DrainResult DR = S.drain(0);
  const Outcome &O = S.wait(T);
  if (O.Failed) {
    // Cancellation unwound the cell fan-out: a classified timeout.
    EXPECT_EQ(O.Failure, FailureKind::TimedOut);
    EXPECT_EQ(DR.Cancelled, 1u);
  } else {
    // The verify outran the head start (or the cancel landed after its
    // last poll) — legal; it settled, and nothing was shed.
    EXPECT_EQ(DR.Shed, 0u);
  }
}

} // namespace
