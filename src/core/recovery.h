// Redo recovery and checkpointing for a TAR-tree store.
//
// A store is a checkpoint snapshot (the persistence format, whose
// footer records the applied WAL LSN) plus a write-ahead log of the
// mutations since. `Recover` rebuilds the latest consistent tree by
// loading the snapshot and replaying the log's valid prefix; replay is
// idempotent by LSN, so recovering twice — or recovering a log that was
// only partially truncated by a checkpoint — yields the same tree.
// `Checkpoint` makes the current tree durable and empties the log.
// `LogRecord` is the write side: a logged tree takes every mutation
// through `LogRecord` + `TarTree::ApplyWalRecord`, never through its
// direct doors. There is no delete record: delete via `DeletePoi` /
// `Rebuild` + a `Checkpoint` before the next logged mutation, so the
// snapshot carries the change.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/tar_tree.h"
#include "storage/wal.h"

namespace tar {

/// \brief What a `Recover` call found and did.
struct RecoveryReport {
  std::uint64_t replayed_records = 0;    ///< records that mutated the tree
  std::uint64_t skipped_records = 0;     ///< at or below the snapshot's LSN
  std::uint64_t checkpoint_markers = 0;  ///< kCheckpoint records seen
  Lsn checkpoint_lsn = 0;  ///< applied LSN recorded in the snapshot footer
  Lsn recovered_lsn = 0;   ///< applied LSN of the recovered tree
  WalTail tail = WalTail::kClean;  ///< how the WAL scan ended
  std::string tail_detail;         ///< non-empty for a non-clean tail

  std::string ToString() const;
};

/// Loads the checkpoint at `snapshot_path` and replays the WAL at
/// `wal_path` on top of it. A missing WAL file is a clean recovery of the
/// snapshot alone. A torn or corrupt WAL tail does not fail recovery —
/// everything before it is replayed and the tail is reported through
/// `report` — but a record that fails to *apply* does (the store is
/// inconsistent with its log). Further writes go through `LogRecord`.
Result<std::unique_ptr<TarTree>> Recover(const std::string& snapshot_path,
                                         const std::string& wal_path,
                                         const TarTree::LoadOptions& options,
                                         RecoveryReport* report = nullptr);

/// Log-before-mutate: validates `record` against `tree`, then appends it
/// to `wal` and stamps `record->lsn`; with no `wal` (an in-memory store)
/// the LSN is `tree.applied_lsn() + 1`. On failure nothing was logged.
/// The caller then applies `*record` with `ApplyWalRecord`; an apply
/// failure poisons only the in-memory tree, and recovery redoes it.
Status LogRecord(const TarTree& tree, WalWriter* wal, WalRecord* record);

/// Checkpoints `tree`: atomically saves it to `snapshot_path` (the footer
/// records the applied LSN), appends a checkpoint marker to `wal`, syncs,
/// and truncates the log — in that order, so a crash between any two
/// steps recovers to the same state. Refuses a poisoned tree.
Status Checkpoint(const TarTree& tree, const std::string& snapshot_path,
                  WalWriter* wal);

}  // namespace tar
