//===- store/Store.cpp - persistent content-addressed result store -----------===//

#include "store/Store.h"

#include "agents/Fsm.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "store/Framing.h"
#include "support/Rng.h"

#include <cstring>
#include <filesystem>
#include <system_error>

using namespace lv;
using namespace lv::store;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Framing primitives (shared with Journal.cpp — see store/Framing.h)
//===----------------------------------------------------------------------===//

namespace {

using framing::crc32;
using framing::FrameBytes;
using framing::Rd;
using framing::RecordMagic;
using framing::Wr;

constexpr uint32_t FileMagic = 0x4C565354; // "LVST"
constexpr size_t HeaderBytes = 4 + 4 + 3 * 8;

enum RecordKind : uint8_t {
  KindEquiv = 1,
  KindChecksum = 2,
  KindProgram = 3,
};

//===----------------------------------------------------------------------===//
// Value serialization
//===----------------------------------------------------------------------===//

void putInterpWork(Wr &W, const interp::InterpWork &V) {
  W.u64(V.Instrs);
  W.u32(static_cast<uint32_t>(interp::kNumOpClasses));
  for (size_t I = 0; I < interp::kNumOpClasses; ++I)
    W.u64(V.Hist[I]);
}

bool getInterpWork(Rd &R, interp::InterpWork &V) {
  V.Instrs = R.u64();
  if (R.u32() != interp::kNumOpClasses)
    R.Fail = true;
  for (size_t I = 0; I < interp::kNumOpClasses && !R.Fail; ++I)
    V.Hist[I] = R.u64();
  return !R.Fail;
}

void putChecksum(Wr &W, const interp::ChecksumOutcome &O) {
  W.u8(static_cast<uint8_t>(O.Verdict));
  W.str(O.FirstMismatch.Where);
  W.i32(O.FirstMismatch.N);
  W.i32(O.FirstMismatch.Expected);
  W.i32(O.FirstMismatch.Actual);
  W.str(O.FirstMismatch.TrapMsg);
  W.str(O.Detail);
  W.u64(O.Work.InputSets);
  W.u64(O.Work.CandRuns);
  W.u64(O.Work.ScalarRuns);
  W.u64(O.Work.ScalarRunsSaved);
  putInterpWork(W, O.Work.Cand);
  putInterpWork(W, O.Work.Scalar);
  W.u8(static_cast<uint8_t>(O.Work.CandTrap));
  W.u8(O.Work.CandHang ? 1 : 0);
}

bool getChecksum(Rd &R, interp::ChecksumOutcome &O) {
  uint8_t Verdict = R.u8();
  if (Verdict > static_cast<uint8_t>(interp::TestVerdict::Error))
    R.Fail = true;
  O.Verdict = static_cast<interp::TestVerdict>(Verdict);
  O.FirstMismatch.Where = R.str();
  O.FirstMismatch.N = R.i32();
  O.FirstMismatch.Expected = R.i32();
  O.FirstMismatch.Actual = R.i32();
  O.FirstMismatch.TrapMsg = R.str();
  O.Detail = R.str();
  O.Work.InputSets = R.u64();
  O.Work.CandRuns = R.u64();
  O.Work.ScalarRuns = R.u64();
  O.Work.ScalarRunsSaved = R.u64();
  getInterpWork(R, O.Work.Cand);
  getInterpWork(R, O.Work.Scalar);
  uint8_t Trap = R.u8();
  if (Trap > static_cast<uint8_t>(interp::TrapKind::Unknown))
    R.Fail = true;
  O.Work.CandTrap = static_cast<interp::TrapKind>(Trap);
  O.Work.CandHang = R.u8() != 0;
  return !R.Fail;
}

void putTV(Wr &W, const tv::TVResult &V) {
  W.u8(static_cast<uint8_t>(V.V));
  W.str(V.Counterexample);
  W.str(V.Detail);
  W.u64(V.Conflicts);
  W.u64(V.Propagations);
  W.u64(V.Restarts);
  W.u64(V.Clauses);
  W.u64(V.SatVars);
  W.u64(V.LearntLive);
  W.d(V.AvgLBD);
  W.u64(V.SolveNanos);
  W.u64(static_cast<uint64_t>(V.TermCount));
}

bool getTV(Rd &R, tv::TVResult &V) {
  uint8_t Verdict = R.u8();
  if (Verdict > static_cast<uint8_t>(tv::TVVerdict::Unsupported))
    R.Fail = true;
  V.V = static_cast<tv::TVVerdict>(Verdict);
  V.Counterexample = R.str();
  V.Detail = R.str();
  V.Conflicts = R.u64();
  V.Propagations = R.u64();
  V.Restarts = R.u64();
  V.Clauses = R.u64();
  V.SatVars = R.u64();
  V.LearntLive = R.u64();
  V.AvgLBD = R.d();
  V.SolveNanos = R.u64();
  V.TermCount = static_cast<size_t>(R.u64());
  return !R.Fail;
}

void putEquiv(Wr &W, const core::EquivResult &E) {
  W.u8(static_cast<uint8_t>(E.Final));
  W.u8(static_cast<uint8_t>(E.DecidedBy));
  W.str(E.Detail);
  W.str(E.Counterexample);
  putChecksum(W, E.ChecksumRes);
  putTV(W, E.Alive2Res);
  putTV(W, E.CUnrollRes);
  W.u32(static_cast<uint32_t>(E.SplitRes.size()));
  for (const tv::TVResult &S : E.SplitRes)
    putTV(W, S);
  W.u8(E.SplittingEligible ? 1 : 0);
  W.u64(E.ChecksumNanos);
  W.u64(E.Alive2Nanos);
  W.u64(E.CUnrollNanos);
  W.u64(E.SplitNanos);
}

bool getEquiv(Rd &R, core::EquivResult &E) {
  uint8_t Final = R.u8();
  if (Final > static_cast<uint8_t>(core::EquivResult::Inconclusive))
    R.Fail = true;
  E.Final = static_cast<core::EquivResult::Outcome>(Final);
  uint8_t Stage = R.u8();
  if (Stage > static_cast<uint8_t>(core::Stage::Splitting))
    R.Fail = true;
  E.DecidedBy = static_cast<core::Stage>(Stage);
  E.Detail = R.str();
  E.Counterexample = R.str();
  getChecksum(R, E.ChecksumRes);
  getTV(R, E.Alive2Res);
  getTV(R, E.CUnrollRes);
  uint32_t NSplit = R.u32();
  // A corrupt length must not allocate unbounded memory before the CRC
  // framing already vetted the payload; still, cap defensively.
  if (NSplit > 1u << 20)
    R.Fail = true;
  E.SplitRes.clear();
  for (uint32_t I = 0; I < NSplit && !R.Fail; ++I) {
    tv::TVResult S;
    getTV(R, S);
    E.SplitRes.push_back(std::move(S));
  }
  E.SplittingEligible = R.u8() != 0;
  E.ChecksumNanos = R.u64();
  E.Alive2Nanos = R.u64();
  E.CUnrollNanos = R.u64();
  E.SplitNanos = R.u64();
  return !R.Fail;
}

void putProgram(Wr &W, const interp::BytecodeProgram &P) {
  W.str(P.Key);
  W.u32(static_cast<uint32_t>(P.Code.size()));
  for (const interp::BInst &I : P.Code) {
    W.u8(static_cast<uint8_t>(I.Op));
    W.u8(I.Cls);
    W.i32(I.Rd);
    W.i32(I.A);
    W.i32(I.B);
    W.i32(I.C);
    W.i64(I.Imm);
  }
  W.u32(static_cast<uint32_t>(P.Extra.size()));
  for (int32_t V : P.Extra)
    W.i32(V);
  W.i32(P.NumRegs);
  W.u8(P.ReturnsValue ? 1 : 0);
  W.u32(static_cast<uint32_t>(P.Params.size()));
  for (const interp::BytecodeProgram::ParamBind &B : P.Params) {
    W.u8(B.IsPointer ? 1 : 0);
    W.i32(B.Reg);
  }
  W.u32(static_cast<uint32_t>(P.Mems.size()));
  for (const interp::BytecodeProgram::MemBind &B : P.Mems) {
    W.str(B.Name);
    W.u8(B.IsParam ? 1 : 0);
    W.i64(B.LocalSize);
  }
}

bool getProgram(Rd &R, interp::BytecodeProgram &P) {
  P.Key = R.str();
  uint32_t NCode = R.u32();
  if (NCode > 1u << 24)
    R.Fail = true;
  P.Code.clear();
  for (uint32_t I = 0; I < NCode && !R.Fail; ++I) {
    interp::BInst Inst;
    uint8_t Op = R.u8();
    if (Op >= interp::kNumBC)
      R.Fail = true;
    Inst.Op = static_cast<interp::BC>(Op);
    Inst.Cls = R.u8();
    if (Inst.Cls >= interp::kNumOpClasses)
      R.Fail = true;
    Inst.Rd = R.i32();
    Inst.A = R.i32();
    Inst.B = R.i32();
    Inst.C = R.i32();
    Inst.Imm = R.i64();
    P.Code.push_back(Inst);
  }
  uint32_t NExtra = R.u32();
  if (NExtra > 1u << 24)
    R.Fail = true;
  P.Extra.clear();
  for (uint32_t I = 0; I < NExtra && !R.Fail; ++I)
    P.Extra.push_back(R.i32());
  P.NumRegs = R.i32();
  P.ReturnsValue = R.u8() != 0;
  uint32_t NParams = R.u32();
  if (NParams > 1u << 16)
    R.Fail = true;
  P.Params.clear();
  for (uint32_t I = 0; I < NParams && !R.Fail; ++I) {
    interp::BytecodeProgram::ParamBind B;
    B.IsPointer = R.u8() != 0;
    B.Reg = R.i32();
    P.Params.push_back(B);
  }
  uint32_t NMems = R.u32();
  if (NMems > 1u << 16)
    R.Fail = true;
  P.Mems.clear();
  for (uint32_t I = 0; I < NMems && !R.Fail; ++I) {
    interp::BytecodeProgram::MemBind B;
    B.Name = R.str();
    B.IsParam = R.u8() != 0;
    B.LocalSize = R.i64();
    P.Mems.push_back(std::move(B));
  }
  return !R.Fail && !P.Key.empty();
}

//===----------------------------------------------------------------------===//
// Bytecode persistence hook (process-global, one owner)
//===----------------------------------------------------------------------===//

std::mutex HookM;
ResultStore *HookOwner = nullptr;

// Chaos file-fault hooks (see ChaosFileHooks in Store.h).
std::mutex ChaosM;
lv::store::ChaosFileHooks ChaosHooks;

bool chaosFailAppend() {
  std::function<bool()> F;
  {
    std::lock_guard<std::mutex> L(ChaosM);
    F = ChaosHooks.FailAppend;
  }
  return F && F();
}

bool chaosFailLoad() {
  std::function<bool()> F;
  {
    std::lock_guard<std::mutex> L(ChaosM);
    F = ChaosHooks.FailLoad;
  }
  return F && F();
}

} // namespace

void lv::store::setChaosFileHooks(ChaosFileHooks H) {
  std::lock_guard<std::mutex> L(ChaosM);
  ChaosHooks = std::move(H);
}

std::string lv::store::serializeEquivResult(const core::EquivResult &R) {
  std::string Out;
  Wr W{Out};
  putEquiv(W, R);
  return Out;
}

bool lv::store::deserializeEquivResult(const std::string &Bytes,
                                       core::EquivResult &Out) {
  Rd R(Bytes);
  return getEquiv(R, Out) && R.done();
}

std::string
lv::store::serializeChecksumOutcome(const interp::ChecksumOutcome &O) {
  std::string Out;
  Wr W{Out};
  putChecksum(W, O);
  return Out;
}

bool lv::store::deserializeChecksumOutcome(const std::string &Bytes,
                                           interp::ChecksumOutcome &Out) {
  Rd R(Bytes);
  return getChecksum(R, Out) && R.done();
}

std::string lv::store::serializeProgram(const interp::BytecodeProgram &P) {
  std::string Out;
  Wr W{Out};
  putProgram(W, P);
  return Out;
}

bool lv::store::deserializeProgram(const std::string &Bytes,
                                   interp::BytecodeProgram &Out) {
  Rd R(Bytes);
  return getProgram(R, Out) && R.done();
}

//===----------------------------------------------------------------------===//
// ResultStore
//===----------------------------------------------------------------------===//

size_t ResultStore::Key3Hash::operator()(const Key3 &K) const {
  return static_cast<size_t>(
      hashCombine(hashCombine(K.Scalar, K.Candidate), K.Config));
}

ResultStore::ResultStore(const std::string &D) : Dir(D) {
  LogPath = Dir + "/records.log";
  std::error_code EC;
  fs::create_directories(Dir, EC);
  load();
}

ResultStore::~ResultStore() {
  disableBytecodePersistence();
  std::lock_guard<std::mutex> L(M);
  if (Log)
    std::fclose(Log);
  Log = nullptr;
}

/// Builds the header bytes for the current build: schema version plus the
/// three default configHash() golden values (pinned in test_svc.cpp). Any
/// change to a config layout or hash scheme changes these, so incompatible
/// stores are detected without reading a single record.
static std::string currentHeader() {
  std::string Out;
  Wr W{Out};
  W.u32(FileMagic);
  W.u32(ResultStore::SchemaVersion);
  W.u64(interp::ChecksumConfig().configHash());
  W.u64(core::EquivConfig().configHash());
  W.u64(agents::FsmConfig().configHash());
  return Out;
}

bool ResultStore::parseHeader(const std::string &Bytes, size_t &Off) {
  if (Bytes.size() < HeaderBytes)
    return false;
  Rd R(reinterpret_cast<const uint8_t *>(Bytes.data()), HeaderBytes);
  if (R.u32() != FileMagic || R.u32() != SchemaVersion)
    return false;
  if (R.u64() != interp::ChecksumConfig().configHash() ||
      R.u64() != core::EquivConfig().configHash() ||
      R.u64() != agents::FsmConfig().configHash())
    return false;
  Off = HeaderBytes;
  return true;
}

/// Renames the incompatible/undecodable log aside (never deletes data a
/// different build may still want) and starts fresh.
void ResultStore::setAside(const char *Why) {
  std::error_code EC;
  fs::rename(LogPath, LogPath + ".skipped", EC);
  if (EC)
    fs::remove(LogPath, EC); // rename failed (e.g. target busy): drop it
  Stats.VersionSkipped++;
  obs::counter("store.version_skipped").inc();
  (void)Why;
}

/// Creates a fresh log via temp file + atomic rename: a crash between the
/// two steps leaves either no log (next open recreates) or a complete
/// header, never a torn one.
void ResultStore::openFresh() {
  std::string Tmp = LogPath + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return;
  std::string H = currentHeader();
  size_t Written = std::fwrite(H.data(), 1, H.size(), F);
  std::fclose(F);
  if (Written != H.size())
    return;
  std::error_code EC;
  fs::rename(Tmp, LogPath, EC);
  if (EC)
    return;
  Log = std::fopen(LogPath.c_str(), "ab");
}

void ResultStore::load() {
  obs::Span LoadSpan("store", "store.load");
  LoadSpan.argStr("dir", Dir);

  if (chaosFailLoad()) {
    // Injected unreadable log. Degrade to a memory-only empty store and
    // leave the file alone: openFresh() would rename a new header over a
    // log that is merely unreadable right now, destroying good records a
    // later open could still replay.
    Stats.ReadFailed++;
    obs::counter("store.read_failed").inc();
    return;
  }

  std::string Bytes;
  {
    std::FILE *F = std::fopen(LogPath.c_str(), "rb");
    if (F) {
      std::fseek(F, 0, SEEK_END);
      long Size = std::ftell(F);
      std::fseek(F, 0, SEEK_SET);
      if (Size > 0) {
        Bytes.resize(static_cast<size_t>(Size));
        if (std::fread(&Bytes[0], 1, Bytes.size(), F) != Bytes.size())
          Bytes.clear();
      }
      std::fclose(F);
    }
  }

  if (Bytes.empty()) {
    // No store yet (or unreadable): start fresh.
    openFresh();
  } else {
    size_t Off = 0;
    if (!parseHeader(Bytes, Off)) {
      // Written by an incompatible build (or not a store at all): set the
      // file aside and start fresh — never an error, never stale replays.
      setAside("header mismatch");
      openFresh();
    } else {
      size_t LastGood = Off;
      while (Off < Bytes.size()) {
        Rd Frame(reinterpret_cast<const uint8_t *>(Bytes.data()) + Off,
                 Bytes.size() - Off);
        if (Frame.u32() != RecordMagic)
          break;
        uint32_t Len = Frame.u32();
        uint32_t Crc = Frame.u32();
        if (Frame.Fail || !Frame.need(Len))
          break;
        const uint8_t *Payload = Frame.P;
        if (crc32(Payload, Len) != Crc)
          break;
        Rd R(Payload, Len);
        uint8_t Kind = R.u8();
        bool Ok = false;
        switch (Kind) {
        case KindEquiv: {
          Key3 K{R.u64(), R.u64(), R.u64()};
          Entry<core::EquivResult> E;
          E.ScalarSrc = R.str();
          E.CandSrc = R.str();
          if (getEquiv(R, E.Value) && R.done()) {
            Equiv.emplace(K, std::move(E));
            Stats.LoadedEquiv++;
            Ok = true;
          }
          break;
        }
        case KindChecksum: {
          Key3 K{R.u64(), R.u64(), R.u64()};
          Entry<interp::ChecksumOutcome> E;
          E.ScalarSrc = R.str();
          E.CandSrc = R.str();
          if (getChecksum(R, E.Value) && R.done()) {
            Checksum.emplace(K, std::move(E));
            Stats.LoadedChecksum++;
            Ok = true;
          }
          break;
        }
        case KindProgram: {
          auto P = std::make_shared<interp::BytecodeProgram>();
          if (getProgram(R, *P) && R.done()) {
            std::string Key = P->Key;
            Programs.emplace(std::move(Key), std::move(P));
            Stats.LoadedPrograms++;
            Ok = true;
          }
          break;
        }
        default:
          break;
        }
        if (!Ok)
          break; // CRC passed but the payload didn't decode: treat as
                 // corruption and drop the suffix (append-only: anything
                 // after a bad record is suspect).
        Off += FrameBytes + Len;
        LastGood = Off;
      }
      if (LastGood < Bytes.size()) {
        // Damaged suffix: everything up to LastGood replayed cleanly;
        // truncate the file back so the next append lands on a clean tail.
        Stats.CorruptSkipped++;
        obs::counter("store.corrupt_skipped").inc();
        std::error_code EC;
        fs::resize_file(LogPath, LastGood, EC);
      }
      Log = std::fopen(LogPath.c_str(), "ab");
    }
  }

  LoadSpan.arg("equiv", Stats.LoadedEquiv);
  LoadSpan.arg("checksum", Stats.LoadedChecksum);
  LoadSpan.arg("programs", Stats.LoadedPrograms);
  LoadSpan.arg("corrupt_skipped", Stats.CorruptSkipped);
  LoadSpan.arg("version_skipped", Stats.VersionSkipped);
}

void ResultStore::appendRecord(uint8_t Kind, const std::string &Payload) {
  (void)Kind; // already the payload's first byte; kept for call-site clarity
  if (!Log)
    return;
  std::string Frame;
  Wr W{Frame};
  W.u32(RecordMagic);
  W.u32(static_cast<uint32_t>(Payload.size()));
  W.u32(crc32(reinterpret_cast<const uint8_t *>(Payload.data()),
              Payload.size()));
  Frame += Payload;
  // An injected failure short-circuits before fwrite, so nothing lands in
  // the log (a simulated EIO must not leave real bytes behind).
  if (chaosFailAppend() ||
      std::fwrite(Frame.data(), 1, Frame.size(), Log) != Frame.size()) {
    // Disk full / I/O error: stop persisting, keep serving from memory.
    std::fclose(Log);
    Log = nullptr;
    Stats.AppendFailed++;
    obs::counter("store.append_failed").inc();
    return;
  }
  // Flush per record: a kill leaves at most the final record torn, which
  // the next load's CRC framing drops.
  std::fflush(Log);
  Stats.Writes++;
  obs::counter("store.writes").inc();
}

bool ResultStore::lookupEquiv(uint64_t ScalarH, uint64_t CandH, uint64_t CfgH,
                              const std::string &ScalarSrc,
                              const std::string &CandSrc,
                              core::EquivResult &Out) {
  std::lock_guard<std::mutex> L(M);
  auto It = Equiv.find(Key3{ScalarH, CandH, CfgH});
  if (It == Equiv.end() || It->second.ScalarSrc != ScalarSrc ||
      It->second.CandSrc != CandSrc) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return false;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  Out = It->second.Value;
  return true;
}

void ResultStore::storeEquiv(uint64_t ScalarH, uint64_t CandH, uint64_t CfgH,
                             const std::string &ScalarSrc,
                             const std::string &CandSrc,
                             const core::EquivResult &R) {
  std::lock_guard<std::mutex> L(M);
  auto Ins = Equiv.emplace(Key3{ScalarH, CandH, CfgH},
                           Entry<core::EquivResult>{ScalarSrc, CandSrc, R});
  if (!Ins.second)
    return; // already persisted (or a colliding key owns the slot)
  std::string Payload;
  Wr W{Payload};
  W.u8(KindEquiv);
  W.u64(ScalarH);
  W.u64(CandH);
  W.u64(CfgH);
  W.str(ScalarSrc);
  W.str(CandSrc);
  putEquiv(W, R);
  appendRecord(KindEquiv, Payload);
}

bool ResultStore::lookupChecksum(uint64_t ScalarH, uint64_t CandH,
                                 uint64_t CfgH, const std::string &ScalarSrc,
                                 const std::string &CandSrc,
                                 interp::ChecksumOutcome &Out) {
  std::lock_guard<std::mutex> L(M);
  auto It = Checksum.find(Key3{ScalarH, CandH, CfgH});
  if (It == Checksum.end() || It->second.ScalarSrc != ScalarSrc ||
      It->second.CandSrc != CandSrc) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return false;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  Out = It->second.Value;
  return true;
}

void ResultStore::storeChecksum(uint64_t ScalarH, uint64_t CandH,
                                uint64_t CfgH, const std::string &ScalarSrc,
                                const std::string &CandSrc,
                                const interp::ChecksumOutcome &O) {
  std::lock_guard<std::mutex> L(M);
  auto Ins =
      Checksum.emplace(Key3{ScalarH, CandH, CfgH},
                       Entry<interp::ChecksumOutcome>{ScalarSrc, CandSrc, O});
  if (!Ins.second)
    return;
  std::string Payload;
  Wr W{Payload};
  W.u8(KindChecksum);
  W.u64(ScalarH);
  W.u64(CandH);
  W.u64(CfgH);
  W.str(ScalarSrc);
  W.str(CandSrc);
  putChecksum(W, O);
  appendRecord(KindChecksum, Payload);
}

std::shared_ptr<const interp::BytecodeProgram>
ResultStore::lookupProgram(const std::string &Key) {
  std::lock_guard<std::mutex> L(M);
  auto It = Programs.find(Key);
  if (It == Programs.end()) {
    Stats.Misses++;
    obs::counter("store.misses").inc();
    return nullptr;
  }
  Stats.Hits++;
  obs::counter("store.hits").inc();
  return It->second;
}

void ResultStore::storeProgram(const interp::BytecodeProgram &P) {
  if (P.Key.empty())
    return; // only content-keyed programs are addressable
  std::lock_guard<std::mutex> L(M);
  auto Ins =
      Programs.emplace(P.Key, std::make_shared<interp::BytecodeProgram>(P));
  if (!Ins.second)
    return;
  std::string Payload;
  Wr W{Payload};
  W.u8(KindProgram);
  putProgram(W, P);
  appendRecord(KindProgram, Payload);
}

void ResultStore::enableBytecodePersistence() {
  std::lock_guard<std::mutex> L(HookM);
  HookOwner = this;
  interp::setBytecodeStoreHooks(interp::BytecodeStoreHooks{
      [this](const std::string &Key) { return lookupProgram(Key); },
      [this](const interp::BytecodeProgram &P) { storeProgram(P); }});
  {
    std::lock_guard<std::mutex> L2(M);
    OwnsBytecodeHook = true;
  }
}

void ResultStore::disableBytecodePersistence() {
  std::lock_guard<std::mutex> L(HookM);
  {
    std::lock_guard<std::mutex> L2(M);
    if (!OwnsBytecodeHook)
      return;
    OwnsBytecodeHook = false;
  }
  if (HookOwner == this) {
    HookOwner = nullptr;
    interp::setBytecodeStoreHooks(interp::BytecodeStoreHooks{});
  }
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> L(M);
  if (Log)
    std::fflush(Log);
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}
