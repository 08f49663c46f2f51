#include "core/recovery.h"

#include <fstream>
#include <sstream>

#include "common/metrics.h"

namespace tar {

std::string RecoveryReport::ToString() const {
  std::ostringstream out;
  out << "checkpoint_lsn=" << checkpoint_lsn
      << " recovered_lsn=" << recovered_lsn
      << " replayed=" << replayed_records << " skipped=" << skipped_records
      << " markers=" << checkpoint_markers << " tail=" << tar::ToString(tail);
  if (!tail_detail.empty()) out << " (" << tail_detail << ")";
  return out.str();
}

Result<std::unique_ptr<TarTree>> Recover(const std::string& snapshot_path,
                                         const std::string& wal_path,
                                         const TarTree::LoadOptions& options,
                                         RecoveryReport* report) {
  RecoveryReport local;
  if (report == nullptr) report = &local;
  *report = RecoveryReport();

  auto loaded = TarTree::LoadFromFile(snapshot_path, options);
  TAR_RETURN_NOT_OK(loaded.status());
  std::unique_ptr<TarTree> tree = std::move(loaded).ValueOrDie();
  report->checkpoint_lsn = tree->applied_lsn();
  report->recovered_lsn = tree->applied_lsn();

  // No log yet (a freshly checkpointed store, or one that never wrote):
  // the snapshot alone is the consistent state.
  if (!std::ifstream(wal_path, std::ios::binary).is_open()) {
    return tree;
  }

  auto opened = WalReader::Open(wal_path);
  TAR_RETURN_NOT_OK(opened.status());
  std::unique_ptr<WalReader> reader = std::move(opened).ValueOrDie();
  report->tail = reader->tail();
  report->tail_detail = reader->tail_detail();

  WalRecord record;
  while (reader->Next(&record)) {
    if (record.type == WalRecord::Type::kCheckpoint) {
      ++report->checkpoint_markers;
      continue;
    }
    bool applied = false;
    TAR_RETURN_NOT_OK(tree->ApplyWalRecord(record, &applied));
    if (applied) {
      ++report->replayed_records;
      if (MetricsEnabled()) {
        static Counter* const replayed = MetricsRegistry::Global().GetCounter(
            "wal.recovery_replayed_records");
        replayed->Increment();
      }
    } else {
      ++report->skipped_records;
    }
  }
  report->recovered_lsn = tree->applied_lsn();
  return tree;
}

Status LogRecord(const TarTree& tree, WalWriter* wal, WalRecord* record) {
  TAR_RETURN_NOT_OK(tree.PrevalidateRecord(*record));
  if (wal == nullptr) {
    record->lsn = tree.applied_lsn() + 1;
    return Status::OK();
  }
  TAR_ASSIGN_OR_RETURN(record->lsn, wal->Append(*record));
  return Status::OK();
}

Status Checkpoint(const TarTree& tree, const std::string& snapshot_path,
                  WalWriter* wal) {
  if (tree.poisoned()) {
    return tree.poison_status().WithContext(
        "checkpoint refused: tree poisoned by an earlier partially applied "
        "mutation");
  }
  // Order matters. (1) The snapshot lands atomically with the applied LSN
  // in its footer. (2) A synced marker records that the snapshot is
  // durable. (3) Truncation empties the log; if the crash comes first,
  // recovery replays records the snapshot already contains — skipped by
  // the LSN gate.
  TAR_RETURN_NOT_OK(tree.SaveToFile(snapshot_path));
  if (wal != nullptr) {
    TAR_RETURN_NOT_OK(
        wal->Append(WalRecord::MakeCheckpoint(tree.applied_lsn())).status());
    TAR_RETURN_NOT_OK(wal->Sync());
    TAR_RETURN_NOT_OK(wal->Truncate());
  }
  return Status::OK();
}

}  // namespace tar
