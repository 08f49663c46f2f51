// Crash-consistent online ingestion: WAL-logged mutations, redo recovery,
// checkpointing, the poisoned-tree contract and the debug single-writer
// assertion (see docs/internals.md, "Failure model").
#include "core/recovery.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/tar_tree.h"
#include "storage/wal.h"

namespace tar {

/// Test-only access to TarTree internals (friend of TarTree).
class TarTreeTestPeer {
 public:
  static void SetWriterTid(TarTree* tree, std::uint64_t tid) {
    tree->writer_tid_.store(tid);
  }
};

namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

TarTreeOptions MakeOptions() {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  return opt;
}

/// Deterministic mixed workload: every fifth op digests an epoch over the
/// POIs inserted so far, the rest insert fresh POIs.
WalRecord NthOp(std::size_t i) {
  if (i % 5 == 4) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (std::size_t j = 0; j < i; ++j) {
      if (j % 5 != 4) {
        aggs[static_cast<PoiId>(j + 1)] = static_cast<std::int64_t>(j % 7) + 1;
      }
    }
    return WalRecord::MakeEpochBatch(static_cast<std::int64_t>(i / 5), aggs);
  }
  return WalRecord::MakeInsertPoi(static_cast<PoiId>(i + 1),
                                  static_cast<double>((i * 37) % 100),
                                  static_cast<double>((i * 61) % 100), {});
}

/// Op `i` through the direct in-memory doors (the reference trees).
Status ApplyNthOp(TarTree* tree, std::size_t i) {
  const WalRecord op = NthOp(i);
  if (op.type == WalRecord::Type::kInsertPoi) {
    return tree->InsertPoi(Poi{op.poi, Vec2{op.x, op.y}}, op.history);
  }
  return tree->AppendEpoch(op.epoch, {op.aggs.begin(), op.aggs.end()});
}

/// Logs `record` through `wal`, then applies it: the logged write path.
Status LogAndApply(TarTree* tree, WalWriter* wal, WalRecord record) {
  TAR_RETURN_NOT_OK(LogRecord(*tree, wal, &record));
  return tree->ApplyWalRecord(record);
}

std::vector<KnntaQuery> ProbeQueries() {
  std::vector<KnntaQuery> queries;
  for (int i = 0; i < 6; ++i) {
    KnntaQuery q;
    q.point = {static_cast<double>((i * 31) % 100),
               static_cast<double>((i * 17) % 100)};
    q.interval = {0, (i + 1) * kEpochLen - 1};
    q.k = 4;
    q.alpha0 = 0.3;
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameAnswers(const TarTree& got, const TarTree& want) {
  for (const KnntaQuery& q : ProbeQueries()) {
    std::vector<KnntaResult> rg;
    std::vector<KnntaResult> rw;
    ASSERT_TRUE(got.Query(q, &rg).ok());
    ASSERT_TRUE(want.Query(q, &rw).ok());
    ASSERT_EQ(rg.size(), rw.size());
    for (std::size_t i = 0; i < rg.size(); ++i) {
      EXPECT_EQ(rg[i].poi, rw[i].poi);
      EXPECT_EQ(rg[i].score, rw[i].score);  // exact: deterministic read path
      EXPECT_EQ(rg[i].aggregate, rw[i].aggregate);
    }
  }
}

class IngestRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::FaultInjector::Global().Clear();
    // Unique per test: ctest runs sibling tests as concurrent processes,
    // so a shared path would let them clobber each other's files.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    snap_ = ::testing::TempDir() + "/ingest_recovery_" + name + ".tart";
    wal_ = ::testing::TempDir() + "/ingest_recovery_" + name + ".wal";
    std::remove(snap_.c_str());
    std::remove(wal_.c_str());
  }
  void TearDown() override {
    fail::FaultInjector::Global().Clear();
    std::remove(snap_.c_str());
    std::remove(wal_.c_str());
  }

  /// Checkpoints an empty tree, then logs and applies ops [0, n).
  /// `checkpoint_at` (if < n) takes a mid-run checkpoint whose truncation
  /// is *skipped*, modeling a crash between checkpoint steps.
  void BuildStore(std::size_t n, std::size_t checkpoint_at = SIZE_MAX) {
    TarTree tree(MakeOptions());
    ASSERT_TRUE(tree.SaveToFile(snap_).ok());
    WalWriterOptions wopt;
    wopt.group_commit_records = 1;
    auto opened = WalWriter::Open(wal_, wopt);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<WalWriter> wal = std::move(opened).ValueOrDie();
    for (std::size_t i = 0; i < n; ++i) {
      if (i == checkpoint_at) {
        ASSERT_TRUE(tree.SaveToFile(snap_).ok());
        ASSERT_TRUE(
            wal->Append(WalRecord::MakeCheckpoint(tree.applied_lsn())).ok());
        ASSERT_TRUE(wal->Sync().ok());
      }
      ASSERT_TRUE(LogAndApply(&tree, wal.get(), NthOp(i)).ok())
          << "op " << i;
    }
    ASSERT_TRUE(wal->Sync().ok());
  }

  std::string snap_;
  std::string wal_;
};

TEST_F(IngestRecoveryTest, RecoverReplaysTheLogOntoTheCheckpoint) {
  constexpr std::size_t kOps = 20;
  BuildStore(kOps);

  RecoveryReport report;
  auto rec = Recover(snap_, wal_, TarTree::LoadOptions(), &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  std::unique_ptr<TarTree> tree = std::move(rec).ValueOrDie();

  EXPECT_EQ(report.checkpoint_lsn, 0u);  // the snapshot was empty
  EXPECT_EQ(report.replayed_records, kOps);
  EXPECT_EQ(report.skipped_records, 0u);
  EXPECT_EQ(report.checkpoint_markers, 0u);
  EXPECT_EQ(report.recovered_lsn, kOps);
  EXPECT_EQ(report.tail, WalTail::kClean);
  EXPECT_TRUE(tree->CheckInvariants().ok());

  TarTree want(MakeOptions());
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(ApplyNthOp(&want, i).ok());
  }
  EXPECT_EQ(tree->num_pois(), want.num_pois());
  ExpectSameAnswers(*tree, want);
}

TEST_F(IngestRecoveryTest, RecoverSkipsRecordsAtOrBelowTheCheckpointLsn) {
  constexpr std::size_t kOps = 20;
  constexpr std::size_t kMid = 11;
  // The un-truncated log still holds the pre-checkpoint records and the
  // marker; the LSN gate must skip them instead of applying them twice.
  BuildStore(kOps, kMid);

  RecoveryReport report;
  auto rec = Recover(snap_, wal_, TarTree::LoadOptions(), &report);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  std::unique_ptr<TarTree> tree = std::move(rec).ValueOrDie();

  EXPECT_EQ(report.checkpoint_lsn, kMid);
  EXPECT_EQ(report.skipped_records, kMid);
  EXPECT_EQ(report.checkpoint_markers, 1u);
  EXPECT_EQ(report.replayed_records, kOps - kMid);
  EXPECT_EQ(report.recovered_lsn, kOps + 1);  // the marker burned one LSN

  TarTree want(MakeOptions());
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(ApplyNthOp(&want, i).ok());
  }
  EXPECT_EQ(tree->num_pois(), want.num_pois());
  ExpectSameAnswers(*tree, want);
}

TEST_F(IngestRecoveryTest, ReplayIsIdempotentAtThePageLevel) {
  BuildStore(20, 11);

  auto first = Recover(snap_, wal_, TarTree::LoadOptions());
  ASSERT_TRUE(first.ok());
  std::stringstream once;
  ASSERT_TRUE(first.ValueOrDie()->Save(once).ok());

  // Recover again, then force-feed the same log a second time: every
  // record sits at or below the applied LSN and must be a no-op, leaving
  // page-level state (checksummed serialized bytes) identical.
  auto second = Recover(snap_, wal_, TarTree::LoadOptions());
  ASSERT_TRUE(second.ok());
  std::unique_ptr<TarTree> tree = std::move(second).ValueOrDie();
  auto reader = std::move(WalReader::Open(wal_)).ValueOrDie();
  WalRecord record;
  while (reader->Next(&record)) {
    bool applied = true;
    ASSERT_TRUE(tree->ApplyWalRecord(record, &applied).ok());
    EXPECT_FALSE(applied) << "record at LSN " << record.lsn
                          << " applied twice";
  }
  std::stringstream twice;
  ASSERT_TRUE(tree->Save(twice).ok());
  EXPECT_EQ(once.str(), twice.str());
}

TEST_F(IngestRecoveryTest, CheckpointTruncatesTheLogAndRecordsTheLsn) {
  constexpr std::size_t kOps = 15;
  TarTree tree(MakeOptions());
  ASSERT_TRUE(tree.SaveToFile(snap_).ok());
  auto wal = std::move(WalWriter::Open(wal_)).ValueOrDie();
  for (std::size_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(LogAndApply(&tree, wal.get(), NthOp(i)).ok());
  }

  ASSERT_TRUE(Checkpoint(tree, snap_, wal.get()).ok());

  // The log is empty, the snapshot footer carries the applied LSN, and a
  // reopened writer (resume_after) keeps LSNs increasing past it.
  std::ifstream in(wal_, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.is_open());
  EXPECT_EQ(in.tellg(), std::streampos(0));
  auto loaded = TarTree::LoadFromFile(snap_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie()->applied_lsn(), tree.applied_lsn());
  EXPECT_EQ(tree.applied_lsn(), kOps);

  wal.reset();
  auto reopened = std::move(WalWriter::Open(wal_, {}, tree.applied_lsn()))
                      .ValueOrDie();
  auto lsn = reopened->Append(WalRecord::MakeCheckpoint(0));
  ASSERT_TRUE(lsn.ok());
  EXPECT_GT(lsn.ValueOrDie(), kOps);
}

// ---------------------------------------------------------------------------
// Failed-mutation containment.

TEST_F(IngestRecoveryTest, RejectedEpochBatchLeavesNoPartialMutation) {
  TarTree tree(MakeOptions());
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(ApplyNthOp(&tree, i).ok());
  }
  std::stringstream before;
  ASSERT_TRUE(tree.Save(before).ok());
  const std::int64_t total_before = tree.poi_snapshot(1)->total;

  // A batch naming an unknown POI is rejected up front. (Regression: the
  // old code bumped the known POIs' totals before detecting the unknown
  // one, leaking a partial mutation on a clean-looking failure.)
  Status st = tree.AppendEpoch(3, {{1, 5}, {9999, 3}});
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(tree.poisoned());

  EXPECT_EQ(tree.poi_snapshot(1)->total, total_before);
  std::stringstream after;
  ASSERT_TRUE(tree.Save(after).ok());
  EXPECT_EQ(before.str(), after.str());
}

TEST_F(IngestRecoveryTest, FailedApplyPoisonsTheTreeAndRecoveryClearsIt) {
  // Build a store with a real checkpoint + log so the durable state can
  // outlive the in-memory failure.
  TarTree tree(MakeOptions());
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(ApplyNthOp(&tree, i).ok());
  }
  ASSERT_TRUE(tree.SaveToFile(snap_).ok());
  WalWriterOptions wopt;
  wopt.group_commit_records = 1;
  auto wal = std::move(WalWriter::Open(wal_, wopt, tree.applied_lsn()))
                 .ValueOrDie();

  // The mutation is logged, then fails mid-apply on an injected page
  // fault: the in-memory tree is now suspect and must say so everywhere.
  ASSERT_TRUE(
      fail::FaultInjector::Global().Configure("page_file.write=err").ok());
  Status st = LogAndApply(&tree, wal.get(),
                          WalRecord::MakeInsertPoi(500, 50, 50, {1, 2, 3}));
  ASSERT_TRUE(st.IsIoError()) << st.ToString();
  fail::FaultInjector::Global().Clear();
  ASSERT_TRUE(tree.poisoned());
  EXPECT_TRUE(tree.poison_status().IsIoError());

  std::vector<KnntaResult> results;
  Status qst = tree.Query(ProbeQueries()[0], &results);
  EXPECT_TRUE(qst.IsIoError()) << qst.ToString();
  EXPECT_NE(qst.message().find("poisoned"), std::string::npos)
      << qst.ToString();
  EXPECT_TRUE(tree.InsertPoi({501, {1, 1}}).IsIoError());
  EXPECT_TRUE(
      LogAndApply(&tree, wal.get(), WalRecord::MakeInsertPoi(501, 1, 1, {}))
          .IsIoError());
  std::stringstream out;
  EXPECT_TRUE(tree.Save(out).IsIoError());
  EXPECT_TRUE(Checkpoint(tree, snap_, wal.get()).IsIoError());

  // The logged record makes the failed mutation all-or-nothing at
  // recovery: replayed without the fault it lands cleanly, so the
  // recovered store contains the POI whose in-memory apply died.
  wal.reset();
  auto rec = Recover(snap_, wal_, TarTree::LoadOptions());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  std::unique_ptr<TarTree> recovered = std::move(rec).ValueOrDie();
  EXPECT_FALSE(recovered->poisoned());
  EXPECT_TRUE(recovered->CheckInvariants().ok());
  EXPECT_TRUE(recovered->poi_snapshot(500).has_value());

  TarTree want(MakeOptions());
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(ApplyNthOp(&want, i).ok());
  }
  ASSERT_TRUE(want.InsertPoi({500, {50, 50}}, {1, 2, 3}).ok());
  ExpectSameAnswers(*recovered, want);
}

TEST_F(IngestRecoveryTest, UnpackableHistoryIsRejectedWithoutPoisoning) {
  // An epoch of 2^31 seconds cannot be packed into a TIA record, so the
  // history is refused before any page is touched — through the direct
  // door and the logged path alike — and the tree stays clean and empty.
  TarTreeOptions opt = MakeOptions();
  opt.grid = EpochGrid(0, Timestamp{1} << 31);
  TarTree tree(opt);
  Status st = tree.InsertPoi({1, {10, 10}}, {1});
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(tree.poisoned());
  EXPECT_EQ(tree.num_pois(), 0u);

  auto wal = std::move(WalWriter::Open(wal_)).ValueOrDie();
  st = LogAndApply(&tree, wal.get(), WalRecord::MakeInsertPoi(1, 10, 10, {1}));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(tree.poisoned());
  EXPECT_EQ(tree.num_pois(), 0u);
  EXPECT_EQ(wal->last_lsn(), 0u);  // nothing reached the log
}

// ---------------------------------------------------------------------------
// Debug single-writer assertion (satellite: two threads caught inside
// mutations must trip the TAR_DCHECK instead of corrupting pages).

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST(SingleWriterDeathTest, ConcurrentMutationTripsTheDcheck) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TarTree tree(MakeOptions());
  // Simulate another thread parked inside a mutation: any hashed-tid
  // value is odd-tagged and never matches this thread's.
  TarTreeTestPeer::SetWriterTid(&tree, 0x9e3779b9u | 1u);
  EXPECT_DEATH(
      { (void)tree.InsertPoi({1, {10, 10}}); },
      "single_writer_contract_held");
}
#endif

// ---------------------------------------------------------------------------
// Concurrent readers against a checkpoint while a single writer ingests
// (the TSan target: queries only touch latched shared state, and the
// writer's tree is disjoint from the readers').

TEST_F(IngestRecoveryTest, ConcurrentReadersAgainstCheckpointWhileIngesting) {
  constexpr std::size_t kWarmup = 10;
  constexpr std::size_t kTotal = 40;
  TarTree live(MakeOptions());
  auto wal = std::move(WalWriter::Open(wal_)).ValueOrDie();
  for (std::size_t i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE(LogAndApply(&live, wal.get(), NthOp(i)).ok());
  }
  ASSERT_TRUE(Checkpoint(live, snap_, wal.get()).ok());

  auto loaded = TarTree::LoadFromFile(snap_);
  ASSERT_TRUE(loaded.ok());
  std::unique_ptr<TarTree> checkpoint = std::move(loaded).ValueOrDie();

  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&checkpoint, &failed] {
      for (int iter = 0; iter < 40; ++iter) {
        for (const KnntaQuery& q : ProbeQueries()) {
          std::vector<KnntaResult> results;
          if (!checkpoint->Query(q, &results).ok()) failed = true;
        }
      }
    });
  }
  // The single writer keeps ingesting (and checkpointing) its own tree
  // while the readers hammer the recovered checkpoint.
  for (std::size_t i = kWarmup; i < kTotal; ++i) {
    ASSERT_TRUE(LogAndApply(&live, wal.get(), NthOp(i)).ok());
    if (i % 8 == 0) {
      ASSERT_TRUE(Checkpoint(live, snap_, wal.get()).ok());
    }
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_TRUE(checkpoint->CheckInvariants().ok());
}

}  // namespace
}  // namespace tar
