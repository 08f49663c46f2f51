// Fault-injection sweeps over the full index lifecycle.
//
// The contract under test: an injected storage or persistence fault may
// fail an operation, but it must fail it *cleanly* — a non-OK Status with
// a message naming the failpoint or the corrupt section, never a crash,
// never a silently wrong answer. Corrupt serialized bytes (truncation at
// every offset, a flipped bit at every byte) must always be rejected.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/parallel_query.h"
#include "core/recovery.h"
#include "core/tar_tree.h"
#include "storage/wal.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;
constexpr std::size_t kEpochs = 18;

std::unique_ptr<TarTree> MakeTree(std::uint64_t seed, std::size_t n,
                                  TiaBackend backend = TiaBackend::kMvbt) {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space = Box2::Union(Box2::FromPoint({0, 0}),
                          Box2::FromPoint({100, 100}));
  opt.tia_backend = backend;
  auto tree = std::make_unique<TarTree>(opt);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    Poi p{static_cast<PoiId>(i), {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
    std::vector<std::int32_t> hist(kEpochs, 0);
    std::int64_t total =
        static_cast<std::int64_t>(std::pow(10.0, rng.Uniform(0.0, 2.0)));
    for (std::int64_t c = 0; c < total; ++c) {
      ++hist[rng.UniformInt(0, kEpochs - 1)];
    }
    EXPECT_TRUE(tree->InsertPoi(p, hist).ok());
  }
  return tree;
}

KnntaQuery MakeQuery(Rng* rng) {
  KnntaQuery q;
  q.point = {rng->Uniform(0, 100), rng->Uniform(0, 100)};
  std::int64_t e0 = rng->UniformInt(0, kEpochs - 1);
  std::int64_t e1 = rng->UniformInt(e0, kEpochs - 1);
  q.interval = {e0 * kEpochLen, (e1 + 1) * kEpochLen - 1};
  q.k = static_cast<std::size_t>(rng->UniformInt(1, 12));
  q.alpha0 = rng->Uniform(0.1, 0.9);
  return q;
}

/// Clears the global injector around every test so armed sites never leak.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::FaultInjector::Global().Clear(); }
  void TearDown() override { fail::FaultInjector::Global().Clear(); }

  fail::FaultInjector& injector() { return fail::FaultInjector::Global(); }
};

// ---------------------------------------------------------------------------
// Acceptance sweep: arm every known site in turn and drive the whole
// lifecycle. Every operation must either succeed or fail with a clean,
// non-empty Status — and when the armed site fired, the failure must be
// attributable (the message names the failpoint or a corrupt section).

TEST_F(FaultInjectionTest, EverySiteFailsCleanlyAcrossTheLifecycle) {
  auto tree = MakeTree(3, 60);
  std::stringstream clean_stream;
  ASSERT_TRUE(tree->Save(clean_stream).ok());
  const std::string clean = clean_stream.str();
  Rng qrng(21);
  const KnntaQuery query = MakeQuery(&qrng);

  for (const std::string& site : fail::FaultInjector::KnownSites()) {
    SCOPED_TRACE(site);
    // Probabilistic arming exercises the mid-operation case; seeds make
    // the sweep reproducible.
    ASSERT_TRUE(injector().Configure(site + "=err@0.2;seed=17").ok());

    // Build under fire: inserts may fail, but must fail cleanly.
    {
      TarTreeOptions opt;
      opt.node_size_bytes = 512;
      opt.grid = EpochGrid(0, kEpochLen);
      TarTree fresh(opt);
      Rng rng(5);
      for (std::size_t i = 0; i < 40; ++i) {
        Poi p{static_cast<PoiId>(i),
              {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
        Status st = fresh.InsertPoi(p, {1, 2, 3});
        if (!st.ok()) {
          EXPECT_FALSE(st.message().empty());
          EXPECT_TRUE(st.IsIoError() || st.IsResourceExhausted())
              << st.ToString();
        }
      }
    }

    // Save under fire.
    {
      std::stringstream out;
      Status st = tree->Save(out);
      if (!st.ok()) {
        EXPECT_FALSE(st.message().empty()) << st.ToString();
      }
    }

    // Load clean bytes under fire.
    {
      std::stringstream in(clean);
      auto res = TarTree::Load(in);
      if (!res.ok()) {
        EXPECT_FALSE(res.status().message().empty());
      } else {
        EXPECT_TRUE(res.ValueOrDie()->CheckInvariants().ok());
      }
    }

    // Query under fire.
    {
      std::vector<KnntaResult> results;
      Status st = tree->Query(query, &results);
      if (!st.ok()) {
        EXPECT_FALSE(st.message().empty());
        // Mid-query faults carry the structural path of the failing entry.
        EXPECT_NE(st.message().find("node:"), std::string::npos)
            << st.ToString();
      }
    }
    injector().Clear();
  }

  // The tree itself must have survived all read-path sweeps untouched.
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST_F(FaultInjectionTest, AllocFaultSurfacesAsResourceExhausted) {
  auto tree = MakeTree(19, 30);
  ASSERT_TRUE(injector().Configure("page_file.alloc=alloc").ok());
  Status st = tree->InsertPoi({9999, {50, 50}}, {5, 5, 5});
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
}

// ---------------------------------------------------------------------------
// Corruption sweeps (satellite: truncate-at-every-offset and flipped-byte
// loads must be rejected, never crash).

TEST_F(FaultInjectionTest, TruncationAtEveryOffsetIsRejected) {
  auto tree = MakeTree(7, 12);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  const std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 64u);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream in(bytes.substr(0, cut));
    auto res = TarTree::Load(in);
    ASSERT_FALSE(res.ok()) << "prefix of " << cut << " bytes was accepted";
    ASSERT_FALSE(res.status().message().empty());
  }
}

TEST_F(FaultInjectionTest, FlippedBitAtEveryByteIsRejected) {
  auto tree = MakeTree(11, 12);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  const std::string bytes = buffer.str();

  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string flipped = bytes;
    flipped[pos] ^= static_cast<char>(1u << (pos % 8));
    std::stringstream in(flipped);
    auto res = TarTree::Load(in);
    ASSERT_FALSE(res.ok()) << "flip at byte " << pos << " was accepted";
    // Section payload flips are caught by the per-section CRC; header and
    // framing flips by structural checks or the file checksum. All must be
    // data errors, not I/O or internal ones.
    ASSERT_TRUE(res.status().IsCorruption() || res.status().IsNotSupported())
        << "flip at byte " << pos << ": " << res.status().ToString();
  }
}

TEST_F(FaultInjectionTest, InjectedBitFlipOnSaveIsCaughtOnLoadByName) {
  auto tree = MakeTree(13, 40);
  ASSERT_TRUE(injector().Configure("persist.write=flip@2;seed=9").ok());
  std::stringstream out;
  ASSERT_TRUE(tree->Save(out).ok());  // flips are silent at write time
  injector().Clear();

  auto res = TarTree::Load(out);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCorruption()) << res.status().ToString();
  // The second emitted section is Pois; the error must say which section's
  // checksum failed so operators can localize the damage.
  EXPECT_NE(res.status().message().find("checksum"), std::string::npos)
      << res.status().ToString();
}

// ---------------------------------------------------------------------------
// Crash-safe SaveToFile (satellite: atomicity under injected faults).

TEST_F(FaultInjectionTest, TornSaveToFileLeavesOriginalIntact) {
  auto tree = MakeTree(17, 50);
  const std::string path = ::testing::TempDir() + "/fault_atomic.tart";
  ASSERT_TRUE(tree->SaveToFile(path).ok());

  ASSERT_TRUE(injector().Configure("persist.write=torn@3;seed=4").ok());
  EXPECT_FALSE(tree->SaveToFile(path).ok());
  injector().Clear();

  // The good file survived the failed overwrite; no temp file remains.
  auto still = TarTree::LoadFromFile(path);
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still.ValueOrDie()->num_pois(), tree->num_pois());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, RenameFaultLeavesOriginalIntact) {
  auto tree = MakeTree(23, 30);
  const std::string path = ::testing::TempDir() + "/fault_rename.tart";
  ASSERT_TRUE(tree->SaveToFile(path).ok());

  ASSERT_TRUE(injector().Configure("persist.rename=err").ok());
  Status st = tree->SaveToFile(path);
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  injector().Clear();

  EXPECT_TRUE(TarTree::LoadFromFile(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, OpenFaultFailsBothDirections) {
  auto tree = MakeTree(29, 20);
  const std::string path = ::testing::TempDir() + "/fault_open.tart";
  ASSERT_TRUE(injector().Configure("persist.open=err").ok());
  EXPECT_TRUE(tree->SaveToFile(path).IsIoError());
  EXPECT_TRUE(TarTree::LoadFromFile(path).status().IsIoError());
}

// ---------------------------------------------------------------------------
// Parallel driver degradation (satellite: a failing page mid-batch is
// counted per-query; surviving queries are bit-identical to a clean run).

TEST_F(FaultInjectionTest, ParallelBatchIsolatesAnInjectedFailure) {
  auto tree = MakeTree(41, 120);
  Rng rng(43);
  std::vector<KnntaQuery> queries;
  for (int i = 0; i < 24; ++i) queries.push_back(MakeQuery(&rng));

  // Clean single-threaded baseline.
  ParallelQueryReport baseline;
  ParallelQueryOptions serial;
  serial.num_threads = 1;
  ASSERT_TRUE(RunParallelQueries(*tree, queries, serial, &baseline).ok());
  ASSERT_EQ(baseline.queries_failed, 0u);

  // One fetch, somewhere in the middle of the batch, fails.
  ASSERT_TRUE(injector().Configure("buffer_pool.fetch=err@2000").ok());
  ParallelQueryReport faulted;
  ParallelQueryOptions parallel;
  parallel.num_threads = 4;
  ASSERT_TRUE(RunParallelQueries(*tree, queries, parallel, &faulted).ok());
  const std::uint64_t fires = injector().fires("buffer_pool.fetch");
  injector().Clear();

  ASSERT_EQ(fires, 1u) << "nth-hit failpoint must fire exactly once";
  EXPECT_EQ(faulted.queries_failed, 1u);
  EXPECT_EQ(faulted.queries_ok, queries.size() - 1);
  ASSERT_EQ(faulted.FailedQueries().size(), 1u);
  ASSERT_EQ(faulted.failures_by_code.size(), 1u);
  EXPECT_EQ(faulted.failures_by_code.begin()->first, Status::Code::kIoError);
  EXPECT_EQ(faulted.failures_by_code.begin()->second, 1u);

  const std::size_t failed = faulted.FailedQueries()[0];
  EXPECT_TRUE(faulted.statuses[failed].IsIoError());
  EXPECT_NE(faulted.statuses[failed].message().find("node:"),
            std::string::npos)
      << faulted.statuses[failed].ToString();

  // Every survivor matches the clean baseline bit for bit.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i == failed) continue;
    ASSERT_TRUE(faulted.statuses[i].ok());
    ASSERT_EQ(faulted.results[i].size(), baseline.results[i].size());
    for (std::size_t j = 0; j < faulted.results[i].size(); ++j) {
      EXPECT_EQ(faulted.results[i][j].poi, baseline.results[i][j].poi);
      EXPECT_EQ(faulted.results[i][j].score, baseline.results[i][j].score);
      EXPECT_EQ(faulted.results[i][j].aggregate,
                baseline.results[i][j].aggregate);
    }
  }
}

TEST_F(FaultInjectionTest, ParallelBatchAccountsProbabilisticFailures) {
  auto tree = MakeTree(47, 80);
  Rng rng(53);
  std::vector<KnntaQuery> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(MakeQuery(&rng));

  ASSERT_TRUE(
      injector().Configure("buffer_pool.fetch=err@0.001;seed=3").ok());
  ParallelQueryReport report;
  ParallelQueryOptions opts;
  opts.num_threads = 4;
  ASSERT_TRUE(RunParallelQueries(*tree, queries, opts, &report).ok());
  injector().Clear();

  EXPECT_EQ(report.queries_ok + report.queries_failed, queries.size());
  std::size_t bucketed = 0;
  for (const auto& [code, count] : report.failures_by_code) {
    EXPECT_NE(code, Status::Code::kOk);
    bucketed += count;
  }
  EXPECT_EQ(bucketed, report.queries_failed);
  EXPECT_EQ(report.FailedQueries().size(), report.queries_failed);
}

// ---------------------------------------------------------------------------
// Catalog completeness: every site in KnownSites() must be *reachable* by
// the lifecycle this file sweeps. A failpoint nobody hits is dead armor —
// the sweep would silently stop covering the code it was written for. Arm
// every site with a vanishingly small fire probability (hits are counted
// on every pass through an armed site, fired or not) and drive the whole
// lifecycle: build, query, checkpoint, WAL-logged ingestion, recovery.

TEST_F(FaultInjectionTest, LifecycleExercisesEveryCatalogedSite) {
  std::string spec;
  for (const std::string& site : fail::FaultInjector::KnownSites()) {
    spec += site + "=err@0.000001;";
  }
  spec += "seed=1";
  ASSERT_TRUE(injector().Configure(spec).ok());

  const std::string snap = ::testing::TempDir() + "/catalog.tart";
  const std::string walp = ::testing::TempDir() + "/catalog.wal";
  std::remove(snap.c_str());
  std::remove(walp.c_str());

  // Build and query: page_file.alloc/write on inserts, page_file.read and
  // buffer_pool.fetch on TIA reads.
  auto tree = MakeTree(11, 40);
  Rng qrng(13);
  std::vector<KnntaResult> results;
  ASSERT_TRUE(tree->Query(MakeQuery(&qrng), &results).ok());

  // Checkpoint and WAL-logged ingestion: persist.open/write/rename on the
  // atomic save, wal.append on the logged mutations, wal.sync and
  // wal.torn on the flush paths.
  ASSERT_TRUE(tree->SaveToFile(snap).ok());
  auto opened = WalWriter::Open(walp, {}, tree->applied_lsn());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<WalWriter> wal = std::move(opened).ValueOrDie();
  WalRecord insert = WalRecord::MakeInsertPoi(1000, 5, 5, {1, 2, 3});
  ASSERT_TRUE(LogRecord(*tree, wal.get(), &insert).ok());
  ASSERT_TRUE(tree->ApplyWalRecord(insert).ok());
  WalRecord epoch = WalRecord::MakeEpochBatch(kEpochs, {{1000, 7}});
  ASSERT_TRUE(LogRecord(*tree, wal.get(), &epoch).ok());
  ASSERT_TRUE(tree->ApplyWalRecord(epoch).ok());
  ASSERT_TRUE(Checkpoint(*tree, snap, wal.get()).ok());
  wal.reset();

  // Recovery: persist.read and persist.load.reserve on the load.
  ASSERT_TRUE(Recover(snap, walp, TarTree::LoadOptions()).ok());

  const std::vector<fail::SiteReport> counters = injector().Snapshot();
  for (const std::string& site : fail::FaultInjector::KnownSites()) {
    SCOPED_TRACE(site);
    std::uint64_t hits = 0;
    for (const fail::SiteReport& r : counters) {
      if (r.site == site) hits = r.hits;
    }
    EXPECT_GT(hits, 0u) << "cataloged failpoint never exercised by the "
                           "lifecycle sweep; extend the sweep or retire "
                           "the site";
  }

  injector().Clear();
  std::remove(snap.c_str());
  std::remove(walp.c_str());
}

}  // namespace
}  // namespace tar
