#include "storage/snapshot_store.h"

#include <chrono>
#include <fstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/recovery.h"

namespace tar {

namespace {

/// Drain iterations spent yielding before backing off to a sleeping
/// poll (a long-held snapshot must not burn a writer core).
constexpr int kDrainSpinLimit = 64;

}  // namespace

void TreeSnapshot::Release() {
  if (store_ == nullptr) return;
  store_->slots_[slot_].readers.fetch_sub(1, std::memory_order_release);
  store_ = nullptr;
  tree_ = nullptr;
}

SnapshotStore::SnapshotStore(const SnapshotStoreOptions& options)
    : options_(options) {}

SnapshotStore::~SnapshotStore() {
  // Outliving snapshots would dereference freed replicas.
  TAR_DCHECK(slots_[0].readers.load(std::memory_order_acquire) == 0);
  TAR_DCHECK(slots_[1].readers.load(std::memory_order_acquire) == 0);
}

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(
    const SnapshotStoreOptions& options) {
  if (options.snapshot_path.empty() != options.wal_path.empty()) {
    return Status::InvalidArgument(
        "snapshot_path and wal_path must be set together");
  }
  const bool durable = !options.wal_path.empty();
  // A durable store always has a snapshot: a fresh one starts from an
  // empty tree at LSN 0, so a log written before the first checkpoint
  // replays over it like any other.
  if (durable &&
      !std::ifstream(options.snapshot_path, std::ios::binary).is_open()) {
    TAR_RETURN_NOT_OK(TarTree(options.tree).SaveToFile(options.snapshot_path));
  }
  std::unique_ptr<SnapshotStore> store(new SnapshotStore(options));
  MutexLock lock(&store->writer_mu_);
  for (std::uint32_t s = 0; s < 2; ++s) {
    if (durable) {
      // Replicas replay the same snapshot + log: replay is deterministic
      // and idempotent by LSN, so they converge on the same state.
      TAR_ASSIGN_OR_RETURN(
          store->slots_[s].tree,
          Recover(options.snapshot_path, options.wal_path, options.load));
    } else {
      store->slots_[s].tree = std::make_unique<TarTree>(options.tree);
    }
  }
  if (durable) {
    auto wal = WalWriter::Open(options.wal_path, options.wal,
                               store->slots_[0].tree->applied_lsn());
    TAR_RETURN_NOT_OK(wal.status());
    store->wal_ = std::move(wal).ValueOrDie();
  }
  return store;
}

TreeSnapshot SnapshotStore::Acquire() const {
  for (;;) {
    const std::uint32_t s = live_.load(std::memory_order_acquire);
    // The pin/recheck pair and the writer's publish/drain pair form a
    // Dekker-style handshake (reader: store readers, load live_; writer:
    // store live_, load readers). With only release/acquire both loads
    // may read stale values — the store-buffering outcome, reachable via
    // StoreLoad reordering on x86 and ARM: the writer observes
    // readers == 0 and starts mutating the old replica while this
    // recheck still sees it as live and returns a pin on it. seq_cst on
    // all four operations puts them in one total order, so at least one
    // side observes the other's store.
    slots_[s].readers.fetch_add(1, std::memory_order_seq_cst);
    if (live_.load(std::memory_order_seq_cst) == s) {
      TreeSnapshot snap;
      snap.store_ = this;
      snap.tree_ = slots_[s].tree.get();
      snap.slot_ = s;
      // Per-slot, not the global counter: the writer may have published a
      // newer version on the other replica since we pinned this one.
      snap.version_ = slots_[s].version.load(std::memory_order_acquire);
      return snap;
    }
    // Lost the race with a publish: the writer may already be mutating
    // this replica behind the drain it observed. Unpin without ever
    // having dereferenced the tree and retry on the new live slot.
    slots_[s].readers.fetch_sub(1, std::memory_order_release);
  }
}

void SnapshotStore::WaitForDrain(std::uint32_t slot) const {
  // Terminates: `live_` no longer names `slot` at every call site (either
  // it points at the other replica, or — for the pre-publish standby
  // drain — it never did), so only pre-flip stragglers hold pins and
  // each unpin is permanent. seq_cst pairs with the pin/recheck in
  // Acquire (see the handshake comment there).
  int spins = 0;
  while (slots_[slot].readers.load(std::memory_order_seq_cst) != 0) {
    if (++spins <= kDrainSpinLimit) {
      std::this_thread::yield();
    } else {
      // A long-held snapshot stalls this publish for its whole lifetime;
      // poll at a coarse cadence instead of burning the core.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

Status SnapshotStore::StageRecord(WalRecord record) {
  TAR_RETURN_NOT_OK(dead_);
  if (stage_phase_ != StagePhase::kIdle) {
    return Status::FailedPrecondition(
        "snapshot store: a staged mutation is pending");
  }
  const std::uint32_t standby = 1u - live_.load(std::memory_order_acquire);
  // Log-before-mutate against the caught-up standby: a record that fails
  // validation never reaches the log (it would poison both replicas).
  TAR_RETURN_NOT_OK(LogRecord(*slots_[standby].tree, wal_.get(), &record));
  // The standby is invisible to new readers, but a straggler that pinned
  // it before the previous publish may still be reading it.
  WaitForDrain(standby);
  Status st = slots_[standby].tree->ApplyWalRecord(record);
  if (!st.ok()) {
    dead_ = st.WithContext("snapshot store: standby apply failed");
    return dead_;
  }
  stage_phase_ = StagePhase::kStaged;
  staged_record_ = std::move(record);
  return Status::OK();
}

void SnapshotStore::PublishStagedLocked() {
  TAR_DCHECK(stage_phase_ == StagePhase::kStaged);
  // Publish: readers switch to the freshly mutated replica; stragglers
  // drain off the old one in CatchUpStagedLocked, after which it is
  // caught up with the same record so the next mutation finds an
  // identical standby.
  const std::uint32_t standby = 1u - live_.load(std::memory_order_acquire);
  ++next_version_;
  slots_[standby].version.store(next_version_, std::memory_order_release);
  // seq_cst: one half of the publish/drain vs pin/recheck handshake —
  // see Acquire for why release/acquire alone is not enough.
  live_.store(standby, std::memory_order_seq_cst);
  version_.store(next_version_, std::memory_order_release);
  stage_phase_ = StagePhase::kPublished;
}

Status SnapshotStore::CatchUpStagedLocked() {
  TAR_DCHECK(stage_phase_ == StagePhase::kPublished);
  stage_phase_ = StagePhase::kIdle;
  const std::uint32_t retired = 1u - live_.load(std::memory_order_acquire);
  WaitForDrain(retired);
  Status st = slots_[retired].tree->ApplyWalRecord(staged_record_);
  staged_record_ = WalRecord{};
  if (!st.ok()) {
    dead_ = st.WithContext("snapshot store: catch-up apply failed");
    return dead_;
  }
  return Status::OK();
}

Status SnapshotStore::ApplyBoth(WalRecord record) {
  TAR_RETURN_NOT_OK(StageRecord(std::move(record)));
  PublishStagedLocked();
  return CatchUpStagedLocked();
}

Status SnapshotStore::InsertPoi(const Poi& poi,
                                const std::vector<std::int32_t>& history) {
  MutexLock lock(&writer_mu_);
  return ApplyBoth(
      WalRecord::MakeInsertPoi(poi.id, poi.pos.x, poi.pos.y, history));
}

Status SnapshotStore::AppendEpoch(
    std::int64_t epoch, const std::unordered_map<PoiId, std::int64_t>& aggs) {
  WalRecord record = WalRecord::MakeEpochBatch(epoch, aggs);
  MutexLock lock(&writer_mu_);
  return ApplyBoth(std::move(record));
}

Status SnapshotStore::StageEpoch(
    std::int64_t epoch, const std::unordered_map<PoiId, std::int64_t>& aggs) {
  WalRecord record = WalRecord::MakeEpochBatch(epoch, aggs);
  MutexLock lock(&writer_mu_);
  return StageRecord(std::move(record));
}

Status SnapshotStore::PublishStaged() {
  MutexLock lock(&writer_mu_);
  if (stage_phase_ != StagePhase::kStaged) {
    return Status::FailedPrecondition("no staged mutation to publish");
  }
  PublishStagedLocked();
  return Status::OK();
}

Status SnapshotStore::CatchUpStaged() {
  MutexLock lock(&writer_mu_);
  if (stage_phase_ != StagePhase::kPublished) {
    return Status::FailedPrecondition("no published mutation to catch up");
  }
  return CatchUpStagedLocked();
}

Status SnapshotStore::Checkpoint() {
  MutexLock lock(&writer_mu_);
  TAR_RETURN_NOT_OK(dead_);
  if (stage_phase_ != StagePhase::kIdle) {
    // The standby holds a staged record the live replica does not; a
    // checkpoint of it would persist an unpublished mutation.
    return Status::FailedPrecondition(
        "snapshot store: a staged mutation is pending");
  }
  if (wal_ == nullptr) {
    return Status::InvalidArgument("in-memory store cannot checkpoint");
  }
  // The standby replica is fully caught up (ApplyBoth leaves both
  // replicas identical) and invisible to new readers; after the drain it
  // is a quiescent copy to serialize, so reads continue on the live
  // replica throughout the checkpoint.
  const std::uint32_t standby = 1u - live_.load(std::memory_order_acquire);
  WaitForDrain(standby);
  return ::tar::Checkpoint(*slots_[standby].tree, options_.snapshot_path,
                           wal_.get());
}

Status SnapshotStore::Flush() {
  MutexLock lock(&writer_mu_);
  TAR_RETURN_NOT_OK(dead_);
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status SnapshotStore::dead_status() const {
  MutexLock lock(&writer_mu_);
  return dead_;
}

Status SnapshotStore::health_status() const {
  MutexLock lock(&writer_mu_);
  if (!dead_.ok()) return dead_;
  if (stage_phase_ != StagePhase::kIdle) {
    // A staged record is durably logged but was never published; the
    // coordinator abandoned it, so the in-memory state has diverged from
    // the log (see the staged-API contract).
    return Status::FailedPrecondition(
        "snapshot store: abandoned staged mutation");
  }
  if (wal_ != nullptr) {
    const Status wal_st = wal_->status();
    if (!wal_st.ok()) {
      return Status::FailedPrecondition("snapshot store: WAL writer dead: " +
                                        wal_st.ToString());
    }
  }
  return Status::OK();
}

Status SnapshotStore::Reopen(ReopenReport* report) {
  MutexLock lock(&writer_mu_);
  if (report != nullptr) {
    *report = ReopenReport{};
    report->prior_death = dead_;
  }
  if (options_.wal_path.empty()) {
    if (dead_.ok() && stage_phase_ == StagePhase::kIdle) return Status::OK();
    return Status::FailedPrecondition(
        "in-memory snapshot store cannot be reopened in process (no log to "
        "rebuild from): " +
        dead_.ToString());
  }
  // Recover both replacement replicas before touching anything, so a
  // recovery failure (the fault may still be live) leaves the store
  // unchanged and the reopen retryable.
  std::unique_ptr<TarTree> fresh[2];
  for (std::uint32_t s = 0; s < 2; ++s) {
    TAR_ASSIGN_OR_RETURN(fresh[s], Recover(options_.snapshot_path,
                                           options_.wal_path, options_.load));
  }
  const Lsn resume_after = fresh[0]->applied_lsn();
  WalReopenReport wal_report;
  TAR_RETURN_NOT_OK(wal_->Reopen(resume_after, &wal_report));
  if (report != nullptr) report->wal = wal_report;

  // Swap the recovered replicas in with the same publish-then-drain
  // discipline as a mutation: replace the invisible standby, flip
  // readers onto it, then drain and replace the retired replica. A
  // snapshot pinned across the whole reopen keeps its (stale but
  // consistent) tree alive until it releases.
  const std::uint32_t retired = live_.load(std::memory_order_acquire);
  const std::uint32_t standby = 1u - retired;
  WaitForDrain(standby);
  slots_[standby].tree = std::move(fresh[0]);
  ++next_version_;
  slots_[standby].version.store(next_version_, std::memory_order_release);
  live_.store(standby, std::memory_order_seq_cst);
  version_.store(next_version_, std::memory_order_release);
  WaitForDrain(retired);
  slots_[retired].tree = std::move(fresh[1]);
  slots_[retired].version.store(next_version_, std::memory_order_release);

  dead_ = Status::OK();
  stage_phase_ = StagePhase::kIdle;
  staged_record_ = WalRecord{};
  return Status::OK();
}

Lsn SnapshotStore::applied_lsn() const {
  TreeSnapshot snap = Acquire();
  return snap.tree().applied_lsn();
}

}  // namespace tar
