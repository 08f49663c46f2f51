// Snapshot-isolated store: readers pin a stable version while the writer
// publishes new ones — the reader-exclusion fix. Covers basic visibility,
// snapshot stability across an in-flight append, rejected mutations,
// durable reopen with and without a checkpoint, and the concurrent
// readers-vs-writer schedule the TSan build exists to race-check.
#include "storage/snapshot_store.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "core/tar_tree.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

TarTreeOptions TreeOptions() {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  return opt;
}

std::unique_ptr<SnapshotStore> OpenInMemory() {
  SnapshotStoreOptions opt;
  opt.tree = TreeOptions();
  auto opened = SnapshotStore::Open(opt);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

Poi MakePoi(PoiId id) {
  return Poi{id, {static_cast<double>((id * 37) % 100),
                  static_cast<double>((id * 61) % 100)}};
}

std::vector<std::int32_t> MakeHistory(PoiId id, int epochs) {
  std::vector<std::int32_t> h(epochs);
  for (int e = 0; e < epochs; ++e) {
    h[e] = static_cast<std::int32_t>((id * 7 + e * 3) % 20 + 1);
  }
  return h;
}

KnntaQuery ProbeQuery(std::int64_t epochs) {
  KnntaQuery q;
  q.point = {50.0, 50.0};
  q.interval = {0, epochs * kEpochLen - 1};
  q.k = 5;
  q.alpha0 = 0.3;
  return q;
}

void ExpectSameAnswers(const TarTree& got, const TarTree& want,
                       std::int64_t epochs) {
  std::vector<KnntaResult> rg;
  std::vector<KnntaResult> rw;
  ASSERT_TRUE(got.Query(ProbeQuery(epochs), &rg).ok());
  ASSERT_TRUE(want.Query(ProbeQuery(epochs), &rw).ok());
  ASSERT_EQ(rg.size(), rw.size());
  for (std::size_t i = 0; i < rg.size(); ++i) {
    EXPECT_EQ(rg[i].poi, rw[i].poi);
    EXPECT_EQ(rg[i].score, rw[i].score);  // exact: deterministic read path
    EXPECT_EQ(rg[i].aggregate, rw[i].aggregate);
  }
}

TEST(SnapshotStoreTest, MutationsBecomeVisibleWithMonotoneVersions) {
  std::unique_ptr<SnapshotStore> store = OpenInMemory();
  EXPECT_EQ(store->version(), 1u);
  {
    TreeSnapshot empty = store->Acquire();
    ASSERT_TRUE(empty.valid());
    EXPECT_EQ(empty.tree().num_pois(), 0u);
    EXPECT_EQ(empty.version(), 1u);
  }

  for (PoiId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(store->InsertPoi(MakePoi(id), MakeHistory(id, 4)).ok());
  }
  std::unordered_map<PoiId, std::int64_t> aggs;
  for (PoiId id = 1; id <= 6; ++id) aggs[id] = id;
  ASSERT_TRUE(store->AppendEpoch(4, aggs).ok());
  EXPECT_EQ(store->version(), 1u + 6u + 1u);  // one bump per mutation

  TreeSnapshot snap = store->Acquire();
  EXPECT_EQ(snap.tree().num_pois(), 6u);
  EXPECT_EQ(snap.version(), store->version());
  std::vector<KnntaResult> results;
  ASSERT_TRUE(snap.tree().Query(ProbeQuery(5), &results).ok());
  EXPECT_EQ(results.size(), 5u);
  EXPECT_TRUE(store->dead_status().ok());
}

TEST(SnapshotStoreTest, HeldSnapshotStaysStableWhileWriterPublishes) {
  std::unique_ptr<SnapshotStore> store = OpenInMemory();
  for (PoiId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(store->InsertPoi(MakePoi(id), MakeHistory(id, 3)).ok());
  }

  TreeSnapshot held = store->Acquire();
  std::vector<KnntaResult> before;
  ASSERT_TRUE(held.tree().Query(ProbeQuery(3), &before).ok());
  const std::uint64_t held_version = held.version();

  // The writer publishes on the other replica, then blocks draining the
  // one this snapshot pins — it must never mutate data under the pin.
  std::atomic<bool> append_done{false};
  std::thread writer([&] {
    std::unordered_map<PoiId, std::int64_t> aggs{{1, 9}, {2, 9}, {3, 9}};
    ASSERT_TRUE(store->AppendEpoch(3, aggs).ok());
    append_done.store(true, std::memory_order_release);
  });

  // Give the writer time to log, apply to the standby and publish.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The pinned view is bit-identical to what it was before the append...
  std::vector<KnntaResult> during;
  ASSERT_TRUE(held.tree().Query(ProbeQuery(3), &during).ok());
  ASSERT_EQ(during.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(during[i].poi, before[i].poi);
    EXPECT_EQ(during[i].score, before[i].score);
  }

  // ...while fresh readers already see the published version: reads are
  // not excluded even though the writer is still in flight, blocked on
  // this snapshot's drain.
  {
    TreeSnapshot fresh = store->Acquire();
    EXPECT_GT(fresh.version(), held_version);
    std::vector<KnntaResult> results;
    ASSERT_TRUE(fresh.tree().Query(ProbeQuery(4), &results).ok());
  }
  EXPECT_TRUE(store->version() > held_version);

  held.Release();
  writer.join();
  EXPECT_TRUE(append_done.load(std::memory_order_acquire));

  // After the drain the old replica was caught up: the next two acquires
  // (one per replica as the writer alternates) agree with each other.
  TreeSnapshot after = store->Acquire();
  std::vector<KnntaResult> results;
  ASSERT_TRUE(after.tree().Query(ProbeQuery(4), &results).ok());
  EXPECT_FALSE(results.empty());
}

TEST(SnapshotStoreTest, RejectedMutationsLeaveVersionAndDataUntouched) {
  std::unique_ptr<SnapshotStore> store = OpenInMemory();
  ASSERT_TRUE(store->InsertPoi(MakePoi(1), MakeHistory(1, 2)).ok());
  const std::uint64_t version = store->version();
  const Lsn lsn = store->applied_lsn();
  EXPECT_EQ(lsn, 1u);

  // Prevalidation runs before the log append, so a bad batch neither
  // bumps the version nor consumes an LSN nor reaches either replica.
  std::unordered_map<PoiId, std::int64_t> unknown{{99, 5}};
  EXPECT_TRUE(store->AppendEpoch(2, unknown).IsInvalidArgument());
  EXPECT_TRUE(store->InsertPoi(MakePoi(1)).IsAlreadyExists());
  EXPECT_TRUE(store->AppendEpoch(-1, {}).IsInvalidArgument());
  EXPECT_EQ(store->version(), version);
  EXPECT_EQ(store->applied_lsn(), lsn);
  EXPECT_TRUE(store->dead_status().ok());

  // The store is still healthy: a valid mutation goes through and takes
  // the next LSN, with no gap left by the rejections.
  std::unordered_map<PoiId, std::int64_t> good{{1, 5}};
  EXPECT_TRUE(store->AppendEpoch(2, good).ok());
  EXPECT_EQ(store->version(), version + 1);
  EXPECT_EQ(store->applied_lsn(), lsn + 1);
}

TEST(SnapshotStoreTest, PathsMustBeSetTogether) {
  SnapshotStoreOptions opt;
  opt.tree = TreeOptions();
  opt.snapshot_path = ::testing::TempDir() + "/snap_only.tart";
  EXPECT_TRUE(SnapshotStore::Open(opt).status().IsInvalidArgument());
  opt.snapshot_path.clear();
  opt.wal_path = ::testing::TempDir() + "/wal_only.wal";
  EXPECT_TRUE(SnapshotStore::Open(opt).status().IsInvalidArgument());

  // In-memory stores cannot checkpoint (nothing to checkpoint to).
  std::unique_ptr<SnapshotStore> store = OpenInMemory();
  EXPECT_TRUE(store->Checkpoint().IsInvalidArgument());
  EXPECT_TRUE(store->Flush().ok());
}

class DurableSnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs sibling tests as concurrent processes,
    // so a shared path would let them clobber each other's files.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    snap_ = ::testing::TempDir() + "/snapshot_store_" + name + ".tart";
    wal_ = ::testing::TempDir() + "/snapshot_store_" + name + ".wal";
    std::remove(snap_.c_str());
    std::remove(wal_.c_str());
  }
  void TearDown() override {
    std::remove(snap_.c_str());
    std::remove(wal_.c_str());
  }

  std::unique_ptr<SnapshotStore> OpenDurable() {
    SnapshotStoreOptions opt;
    opt.tree = TreeOptions();
    opt.snapshot_path = snap_;
    opt.wal_path = wal_;
    opt.wal.group_commit_records = 1;
    auto opened = SnapshotStore::Open(opt);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).ValueOrDie();
  }

  /// The same mutations applied to a bare reference tree.
  std::unique_ptr<TarTree> Reference() {
    auto tree = std::make_unique<TarTree>(TreeOptions());
    for (PoiId id = 1; id <= 5; ++id) {
      EXPECT_TRUE(tree->InsertPoi(MakePoi(id), MakeHistory(id, 3)).ok());
    }
    std::unordered_map<PoiId, std::int64_t> aggs{{1, 4}, {3, 7}, {5, 2}};
    EXPECT_TRUE(tree->AppendEpoch(3, aggs).ok());
    return tree;
  }

  void Mutate(SnapshotStore* store) {
    for (PoiId id = 1; id <= 5; ++id) {
      ASSERT_TRUE(store->InsertPoi(MakePoi(id), MakeHistory(id, 3)).ok());
    }
    std::unordered_map<PoiId, std::int64_t> aggs{{1, 4}, {3, 7}, {5, 2}};
    ASSERT_TRUE(store->AppendEpoch(3, aggs).ok());
  }

  std::string snap_;
  std::string wal_;
};

TEST_F(DurableSnapshotStoreTest, ReopenReplaysWalWithoutCheckpoint) {
  {
    std::unique_ptr<SnapshotStore> store = OpenDurable();
    Mutate(store.get());
    ASSERT_TRUE(store->Flush().ok());
    // No checkpoint: the snapshot is still the empty LSN-0 tree Open
    // wrote, so reopen must rebuild both replicas from the whole log.
  }
  std::unique_ptr<SnapshotStore> reopened = OpenDurable();
  {
    // Scoped: holding this snapshot across the append below would pin the
    // replica the writer drains — the single-thread misuse the API forbids.
    TreeSnapshot snap = reopened->Acquire();
    EXPECT_EQ(snap.tree().num_pois(), 5u);
    EXPECT_EQ(snap.tree().applied_lsn(), 6u);
    ExpectSameAnswers(snap.tree(), *Reference(), 4);
  }

  // The recovered store keeps serving writes with fresh LSNs.
  std::unordered_map<PoiId, std::int64_t> more{{2, 3}};
  ASSERT_TRUE(reopened->AppendEpoch(4, more).ok());
  EXPECT_EQ(reopened->applied_lsn(), 7u);
}

TEST_F(DurableSnapshotStoreTest, OpenSavesEmptySnapshotAndReplaysOrphanLog) {
  {
    std::unique_ptr<SnapshotStore> store = OpenDurable();
    // A fresh durable store starts from an empty snapshot at LSN 0.
    auto empty = TarTree::LoadFromFile(snap_);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_TRUE(empty.ValueOrDie()->empty());
    EXPECT_EQ(empty.ValueOrDie()->applied_lsn(), 0u);
    Mutate(store.get());
    ASSERT_TRUE(store->Flush().ok());
  }
  // A log whose snapshot is gone (a store written before every durable
  // Open saved one) replays in full over a fresh empty snapshot.
  ASSERT_EQ(std::remove(snap_.c_str()), 0);
  std::unique_ptr<SnapshotStore> reopened = OpenDurable();
  TreeSnapshot snap = reopened->Acquire();
  EXPECT_EQ(snap.tree().applied_lsn(), 6u);
  ExpectSameAnswers(snap.tree(), *Reference(), 4);
}

TEST_F(DurableSnapshotStoreTest, ReopenAfterCheckpointAndTailReplay) {
  {
    std::unique_ptr<SnapshotStore> store = OpenDurable();
    Mutate(store.get());
    ASSERT_TRUE(store->Checkpoint().ok());
    // Post-checkpoint tail: reopen recovers the snapshot, then replays
    // only this record.
    std::unordered_map<PoiId, std::int64_t> more{{2, 3}, {4, 1}};
    ASSERT_TRUE(store->AppendEpoch(4, more).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  std::unique_ptr<SnapshotStore> reopened = OpenDurable();
  std::unique_ptr<TarTree> want = Reference();
  std::unordered_map<PoiId, std::int64_t> more{{2, 3}, {4, 1}};
  ASSERT_TRUE(want->AppendEpoch(4, more).ok());
  TreeSnapshot snap = reopened->Acquire();
  EXPECT_EQ(snap.tree().num_pois(), 5u);
  ExpectSameAnswers(snap.tree(), *want, 5);
}

// The schedule the TSan build race-checks: many readers acquiring and
// querying while one writer appends epochs and checkpoints. No reader
// ever blocks on the writer, versions are monotone per reader, and every
// query succeeds on whichever version it pinned.
TEST_F(DurableSnapshotStoreTest, ConcurrentReadersDuringAppendsAndCheckpoints) {
  std::unique_ptr<SnapshotStore> store = OpenDurable();
  for (PoiId id = 1; id <= 8; ++id) {
    ASSERT_TRUE(store->InsertPoi(MakePoi(id), MakeHistory(id, 4)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        TreeSnapshot snap = store->Acquire();
        ASSERT_GE(snap.version(), last_version);
        last_version = snap.version();
        std::vector<KnntaResult> results;
        ASSERT_TRUE(snap.tree().Query(ProbeQuery(4), &results).ok());
        ASSERT_FALSE(results.empty());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::int64_t epoch = 4; epoch < 24; ++epoch) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (PoiId id = 1; id <= 8; ++id) {
      if ((id + epoch) % 3 != 0) aggs[id] = (id + epoch) % 11 + 1;
    }
    ASSERT_TRUE(store->AppendEpoch(epoch, aggs).ok());
    if (epoch % 5 == 0) {
      ASSERT_TRUE(store->Checkpoint().ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_TRUE(store->dead_status().ok());
  TreeSnapshot snap = store->Acquire();
  EXPECT_EQ(snap.version(), store->version());
  ASSERT_TRUE(snap.tree().CheckInvariants().ok());
}

}  // namespace
}  // namespace tar
