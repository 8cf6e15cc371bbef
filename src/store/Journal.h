//===- store/Journal.h - crash-recovery batch journal -----------*- C++ -*-===//
///
/// \file
/// A write-ahead journal that makes a batch survive process death. The
/// service appends one `BatchBegin` record when a batch is admitted
/// (membership = the content-addressed task keys) and one `TaskDone`
/// record per completed task (the task's fully serialized Outcome). A
/// process killed mid-batch reopens the journal, finds the completed
/// subset, and re-runs only the remainder — because every task is a pure
/// function of its Request, replayed outcomes are byte-identical to what
/// the re-run would have produced, so an interrupted batch converges on
/// exactly the uninterrupted result.
///
/// The on-disk contract is the `ResultStore` contract (see Framing.h and
/// store/README.md): a versioned header ('LVJN' magic + schema version +
/// the three default configHash goldens), CRC-framed records flushed one
/// by one, a torn or flipped tail truncated back to the last good record
/// on load, and an incompatible header set aside (`journal.log.skipped`)
/// rather than trusted or destroyed. Only *completed* outcomes are
/// journaled and lookups re-check the request identity string, so a
/// replay can skip work but never change a result.
///
/// Threading: one mutex, same as ResultStore. The journal is an append
/// log plus an in-memory index; it is shared by all workers of a service.
///
//===----------------------------------------------------------------------===//

#ifndef LV_STORE_JOURNAL_H
#define LV_STORE_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace lv {
namespace store {

/// Journal counters, mirroring StoreStats' salvage taxonomy.
struct JournalStats {
  uint64_t LoadedDone = 0;     ///< TaskDone records replayed on open.
  uint64_t LoadedBatches = 0;  ///< BatchBegin records replayed on open.
  uint64_t ReplayHits = 0;     ///< Lookups served from a prior process.
  uint64_t Writes = 0;         ///< Records appended this session.
  uint64_t CorruptSkipped = 0; ///< Damaged tails dropped on load.
  uint64_t VersionSkipped = 0; ///< Incompatible journals set aside.
  uint64_t AppendFailed = 0;   ///< Appends lost to I/O failure.

  void add(const JournalStats &O) {
    LoadedDone += O.LoadedDone;
    LoadedBatches += O.LoadedBatches;
    ReplayHits += O.ReplayHits;
    Writes += O.Writes;
    CorruptSkipped += O.CorruptSkipped;
    VersionSkipped += O.VersionSkipped;
    AppendFailed += O.AppendFailed;
  }
};

class BatchJournal {
public:
  /// On-disk schema version; bump when the record layout or the service's
  /// Outcome wire format (svc::serializeOutcome) changes.
  static constexpr uint32_t SchemaVersion = 2;

  /// Opens (or creates) `<Dir>/journal.log`, replaying completed-task
  /// records into the in-memory index. Same degradation ladder as
  /// ResultStore: unreadable/incompatible logs become an empty journal,
  /// never an error.
  explicit BatchJournal(const std::string &Dir);
  ~BatchJournal();

  BatchJournal(const BatchJournal &) = delete;
  BatchJournal &operator=(const BatchJournal &) = delete;

  const std::string &dir() const { return Dir; }

  /// True when the log is open for appending (replay works either way).
  bool ok() const { return Log != nullptr; }

  /// Records a batch's membership and returns how many of its tasks are
  /// already completed in the journal (i.e. will replay instead of run).
  size_t beginBatch(const std::vector<uint64_t> &Keys);

  /// Fetches the serialized Outcome of a completed task. \p Verify is the
  /// request identity string (svc builds it from the request's name and
  /// sources); a key hit with a different identity degrades to a miss —
  /// the same collision discipline as the result store.
  bool lookupDone(uint64_t Key, const std::string &Verify,
                  std::string &Payload);

  /// Appends a completed task's serialized Outcome. Idempotent per key:
  /// the first record wins (re-recording a replayed task is a no-op).
  void recordDone(uint64_t Key, const std::string &Verify,
                  const std::string &Payload);

  /// Forces buffered bytes to the OS (appends already flush per record).
  void flush();

  JournalStats stats() const;

private:
  struct DoneEntry {
    std::string Verify;
    std::string Payload;
  };

  void load();
  void openFresh();
  void setAside();
  void appendRecord(const std::string &Payload);

  std::string Dir;
  std::string LogPath;
  mutable std::mutex M;
  std::FILE *Log = nullptr;
  std::unordered_map<uint64_t, DoneEntry> Done;
  JournalStats Stats;
};

} // namespace store
} // namespace lv

#endif // LV_STORE_JOURNAL_H
