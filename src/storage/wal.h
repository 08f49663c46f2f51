// Write-ahead log for TAR-tree mutations.
//
// The log is a flat file of CRC-32C-framed, LSN-stamped logical records
// (one per top-level mutation). Layout of one frame:
//
//   u64 lsn | u32 type | u32 payload_len | payload | u32 CRC-32C
//
// The checksum covers the 16-byte header and the payload, so any torn or
// flipped byte anywhere in a frame is detected. LSNs are assigned by the
// writer, start at 1 and are strictly increasing across the lifetime of a
// store (they keep counting across checkpoints and truncations); replay
// uses them to apply each record at most once (see core/recovery.h).
//
// Tail semantics ("padded torn-tail detection"): a reader scans frames
// from the start and stops at the first frame it cannot trust. A tail of
// zero bytes — including an all-zero header, the signature of a file
// pre-allocated or torn at a frame boundary — is a *clean* end of log. A
// partial frame with non-zero bytes is a *torn* tail (a crashed append);
// a complete frame whose checksum, type, length or LSN monotonicity fails
// is a *corrupt* tail. In every case the valid prefix before the bad
// frame is still replayable; the distinction is reported so callers can
// tell "lost the unsynced tail of a crash" from "someone damaged my log".
//
// Durability model: WalWriter::Append buffers the encoded frame and
// Sync() writes and flushes the batch (group commit). Auto-sync triggers
// when the configured record or byte budget fills. A failed Sync leaves
// the writer dead (every later call returns the original error): the file
// may now end in a torn frame, and the only safe continuation is recovery
// into a fresh writer.
//
// Failpoints (see common/failpoint.h): `wal.append` fails an append
// before it buffers anything; `wal.sync` fails the flush of a batch;
// `wal.torn` tears the batch (persists a seed-chosen prefix, then fails)
// or, with the flip action, silently corrupts one bit of it so the
// *reader* must catch it.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace tar {

/// Log sequence number. 0 means "none"; the first record gets LSN 1.
using Lsn = std::uint64_t;

/// \brief One logical WAL record (the union of all record types).
struct WalRecord {
  enum class Type : std::uint32_t {
    kInsertPoi = 1,    ///< a POI insertion with its check-in history
    kAppendEpoch = 2,  ///< one digested epoch of per-POI aggregates
    kCheckpoint = 3,   ///< marker: the snapshot at `durable_lsn` is on disk
  };

  Type type = Type::kCheckpoint;
  /// Stamped by WalWriter::Append; filled in by the reader on replay.
  Lsn lsn = 0;

  // kInsertPoi
  std::uint32_t poi = 0;
  double x = 0.0;
  double y = 0.0;
  std::vector<std::int32_t> history;

  // kAppendEpoch
  std::int64_t epoch = 0;
  /// (poi, aggregate) pairs, sorted by POI id so the encoding — and the
  /// replay order — is deterministic regardless of the source map's order.
  std::vector<std::pair<std::uint32_t, std::int64_t>> aggs;

  // kCheckpoint
  Lsn durable_lsn = 0;

  static WalRecord MakeInsertPoi(std::uint32_t poi, double x, double y,
                                 std::vector<std::int32_t> history);
  static WalRecord MakeAppendEpoch(
      std::int64_t epoch,
      std::vector<std::pair<std::uint32_t, std::int64_t>> aggs);
  /// The kAppendEpoch record of an epoch batch as TarTree::AppendEpoch
  /// takes it: only positive aggregates are kept (the rest digest to
  /// nothing).
  static WalRecord MakeEpochBatch(
      std::int64_t epoch,
      const std::unordered_map<std::uint32_t, std::int64_t>& aggs);
  static WalRecord MakeCheckpoint(Lsn durable_lsn);
};

const char* ToString(WalRecord::Type type);

/// How a scan of the log ended (everything before it is replayable).
enum class WalTail {
  kClean,    ///< exact end of file, or zero padding / zero header
  kTorn,     ///< a partial frame with non-zero bytes (crashed append)
  kCorrupt,  ///< checksum/type/length/LSN validation failed on a frame
};

const char* ToString(WalTail tail);

/// \brief Result of scanning raw log bytes for their valid record prefix.
struct WalScan {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< length of the trusted frame prefix
  Lsn last_lsn = 0;               ///< LSN of the last valid record
  WalTail tail = WalTail::kClean;
  std::string tail_detail;  ///< human-readable reason for a non-clean tail
};

/// Scans `bytes` frame by frame, stopping at the first untrusted frame.
/// Never fails: damage is reported through `tail`/`tail_detail` and the
/// records before it are returned.
WalScan ScanWal(const std::string& bytes);

/// \brief What WalWriter::Reopen found and did (the repair evidence).
struct WalReopenReport {
  /// The failure that killed the writer, verbatim (OK if it was alive).
  /// Reopen clears the sticky death but must not erase its root cause —
  /// this is where it survives for the repair report.
  Status prior_death;
  /// Bytes trimmed off the file's torn/corrupt tail.
  std::uint64_t trimmed_bytes = 0;
  /// Buffered-but-unsynced frames discarded (they never reached disk).
  std::size_t discarded_records = 0;
  /// LSN counter after the reopen; new appends continue from here.
  Lsn resumed_lsn = 0;
};

/// \brief Group-commit batching knobs for WalWriter.
struct WalWriterOptions {
  /// Auto-sync once this many records are buffered. 1 = sync every append.
  std::size_t group_commit_records = 32;

  /// Auto-sync once this many frame bytes are buffered.
  std::size_t group_commit_bytes = 256 * 1024;
};

/// \brief Appender for a write-ahead log file.
///
/// Thread safety: Append/Sync/Truncate and the counters serialize on an
/// internal ranked latch (`wal.writer` in the hierarchy of
/// src/common/lock_rank.h), so the writer itself is safe to share —
/// groundwork for the sharded server's per-shard WAL, where checkpoint
/// coordination syncs a log that ingestion threads append to. Note that
/// TarTree mutations still require external exclusion (see
/// core/tar_tree.h): the latch serializes log I/O, not tree updates.
class WalWriter {
 public:
  /// Opens `path` for appending. An existing log is scanned first: LSNs
  /// resume after its last valid record and a torn or corrupt tail is
  /// trimmed off, so new frames never land behind garbage. `resume_after`
  /// raises the starting LSN further (pass the tree's applied LSN when
  /// reopening a store whose log was truncated by a checkpoint, so fresh
  /// records sort after everything already applied).
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, const WalWriterOptions& options = {},
      Lsn resume_after = 0);

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Stamps the next LSN on `record`, encodes and buffers its frame, and
  /// auto-syncs when a group-commit budget fills. Returns the LSN. On any
  /// failure nothing is buffered and the LSN counter is not consumed.
  Result<Lsn> Append(const WalRecord& record) TAR_EXCLUDES(mu_);

  /// Writes and flushes all buffered frames. A failure kills the writer:
  /// the file may end in a torn frame, so the log must go through
  /// recovery. The failing call returns the original I/O error; every
  /// *later* Append/Sync/Truncate returns kFailedPrecondition with that
  /// original failure attached, so callers can tell the root cause (one
  /// I/O error) from the stuck-writer symptom (N gated calls) and report
  /// it once.
  Status Sync() TAR_EXCLUDES(mu_);

  /// Empties the log file (the checkpoint made its records redundant).
  /// Discards buffered-but-unsynced frames too — checkpoint before
  /// truncating. The LSN counter is NOT reset; it keeps increasing so
  /// records appended after a checkpoint still sort after it.
  Status Truncate() TAR_EXCLUDES(mu_);

  /// Resurrects a dead writer in process (the shard-repair path; a
  /// process restart reaches the same state through Open). Rescans the
  /// file, trims the torn/corrupt tail the failed sync may have left,
  /// discards the unsynced buffer, reopens the append stream, and resumes
  /// LSNs after max(last valid on-disk record, `resume_after`) — pass the
  /// recovered tree's applied LSN so fresh records sort after everything
  /// replay applied. The original death cause is preserved in `report`
  /// (never silently swallowed), along with what the trim discarded. On
  /// failure the writer stays dead with the new error. Safe on a live
  /// writer too (a no-op rescan of a clean tail).
  Status Reopen(Lsn resume_after = 0, WalReopenReport* report = nullptr)
      TAR_EXCLUDES(mu_);

  /// OK while the writer is alive; the original sticky failure once dead.
  Status status() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return dead_;
  }

  Lsn last_lsn() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_lsn_;
  }
  Lsn last_synced_lsn() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return last_synced_lsn_;
  }
  std::size_t pending_records() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pending_records_;
  }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, const WalWriterOptions& options, Lsn last_lsn);

  /// The sync body; Append calls it with the latch already held when a
  /// group-commit budget fills.
  Status SyncLocked() TAR_REQUIRES(mu_);

  /// OK while the writer is alive; kFailedPrecondition wrapping the
  /// original sync failure once it is dead (the entry gate of every
  /// mutating call — the call that *caused* the death returns the
  /// original error itself).
  Status DeadGateLocked() const TAR_REQUIRES(mu_);

  const std::string path_;
  const WalWriterOptions options_;
  mutable Mutex mu_{LockRank::kWalWriter, "wal.writer"};
  std::ofstream out_ TAR_GUARDED_BY(mu_);
  /// Sticky error after a failed sync.
  Status dead_ TAR_GUARDED_BY(mu_) = Status::OK();
  /// Encoded frames awaiting Sync.
  std::string pending_ TAR_GUARDED_BY(mu_);
  std::size_t pending_records_ TAR_GUARDED_BY(mu_) = 0;
  Lsn last_lsn_ TAR_GUARDED_BY(mu_) = 0;
  Lsn last_synced_lsn_ TAR_GUARDED_BY(mu_) = 0;
};

/// \brief Sequential reader over the valid prefix of a log file.
///
/// The file is scanned once at Open (a WAL is bounded by checkpointing);
/// Next then hands out the records in order. The tail classification says
/// how the scan ended — recovery proceeds with the prefix either way but
/// must report a non-clean tail rather than silently swallow it.
class WalReader {
 public:
  /// Fails only when the file cannot be read at all; damaged contents are
  /// reported through tail(), never as an open error.
  static Result<std::unique_ptr<WalReader>> Open(const std::string& path);

  WalReader(const WalReader&) = delete;
  WalReader& operator=(const WalReader&) = delete;

  /// True and fills `record` while records remain; false at the end.
  bool Next(WalRecord* record);

  WalTail tail() const { return scan_.tail; }
  const std::string& tail_detail() const { return scan_.tail_detail; }
  std::uint64_t valid_bytes() const { return scan_.valid_bytes; }
  Lsn last_lsn() const { return scan_.last_lsn; }
  std::size_t num_records() const { return scan_.records.size(); }

 private:
  explicit WalReader(WalScan scan) : scan_(std::move(scan)) {}

  WalScan scan_;
  std::size_t next_ = 0;
};

}  // namespace tar
