// Tests for analysis::StructureVerifier: fresh-index passes over all five
// subsystems, randomized mutation fuzzing with periodic deep verification,
// and corruption injection against the persistence format.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "analysis/structure_verifier.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/recovery.h"
#include "core/tar_tree.h"
#include "storage/wal.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "temporal/bptree.h"
#include "temporal/mvbt.h"
#include "temporal/tia.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

std::unique_ptr<TarTree> MakeTree(std::uint64_t seed, std::size_t n,
                                  GroupingStrategy strategy,
                                  TiaBackend backend = TiaBackend::kMvbt) {
  TarTreeOptions opt;
  opt.strategy = strategy;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space = Box2::Union(Box2::FromPoint({0, 0}),
                          Box2::FromPoint({100, 100}));
  opt.tia_backend = backend;
  auto tree = std::make_unique<TarTree>(opt);
  Rng rng(seed);
  const std::size_t epochs = 18;
  for (std::size_t i = 0; i < n; ++i) {
    Poi p{static_cast<PoiId>(i), {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
    std::vector<std::int32_t> hist(epochs, 0);
    std::int64_t total =
        static_cast<std::int64_t>(std::pow(10.0, rng.Uniform(0.0, 2.0)));
    for (std::int64_t c = 0; c < total; ++c) {
      ++hist[rng.UniformInt(0, epochs - 1)];
    }
    EXPECT_TRUE(tree->InsertPoi(p, hist).ok());
  }
  return tree;
}

// ---------------------------------------------------------------------------
// Fresh-index passes.

TEST(StructureVerifierTest, FreshMvbtPasses) {
  PageFile file(512);
  BufferPool pool(&file, 10);
  mvbt::Mvbt tree(&file, &pool, /*owner=*/1);
  Rng rng(3);
  std::int64_t version = 0;
  std::vector<mvbt::Key> live;
  for (int i = 0; i < 400; ++i) {
    mvbt::Key key = rng.UniformInt(0, 1000);
    ++version;
    if (tree.Insert(version, key, key * 10).ok()) {
      live.push_back(key);
    } else if (!live.empty()) {
      // Key already alive: delete a random live key instead.
      std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(tree.Erase(version, live[pick]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  analysis::StructureVerifier verifier;
  EXPECT_TRUE(verifier.VerifyMvbt(tree).ok());
}

TEST(StructureVerifierTest, FreshBpTreePasses) {
  PageFile file(512);
  BufferPool pool(&file, 10);
  bptree::BpTree tree(&file, &pool, /*owner=*/1);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Put(rng.UniformInt(0, 2000), i).ok());
  }
  for (int i = 0; i < 200; ++i) {
    (void)tree.Erase(rng.UniformInt(0, 2000)).ok();  // NotFound is fine
  }
  analysis::StructureVerifier verifier;
  EXPECT_TRUE(verifier.VerifyBpTree(tree).ok());
}

class TiaVerifyTest : public ::testing::TestWithParam<TiaBackend> {};

TEST_P(TiaVerifyTest, FreshTiaPasses) {
  PageFile file(512);
  BufferPool pool(&file, 10);
  Tia tia(&file, &pool, /*owner=*/1, GetParam());
  Rng rng(7);
  for (std::int64_t e = 0; e < 50; ++e) {
    std::int64_t agg = rng.UniformInt(0, 30);
    if (agg == 0) continue;  // zero aggregates are not stored
    TimeInterval extent{e * kEpochLen, (e + 1) * kEpochLen - 1};
    ASSERT_TRUE(tia.Append(extent, agg).ok());
  }
  analysis::VerifyOptions opt;
  opt.tia_sample_intervals = 16;
  analysis::StructureVerifier verifier(opt);
  analysis::VerifyReport report;
  EXPECT_TRUE(verifier.VerifyTia(tia, &report).ok());
  EXPECT_EQ(report.tias_verified, 1u);
  EXPECT_GE(report.intervals_cross_checked, opt.tia_sample_intervals);
}

INSTANTIATE_TEST_SUITE_P(Backends, TiaVerifyTest,
                         ::testing::Values(TiaBackend::kMvbt,
                                           TiaBackend::kBpTree),
                         [](const ::testing::TestParamInfo<TiaBackend>& info) {
                           std::string name = ToString(info.param);
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(StructureVerifierTest, BufferPoolPassesAfterUse) {
  PageFile file(512);
  BufferPool pool(&file, 4);
  for (int i = 0; i < 12; ++i) (void)file.Allocate();
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    OwnerId owner = static_cast<OwnerId>(rng.UniformInt(0, 3));
    PageId id = static_cast<PageId>(rng.UniformInt(0, 11));
    ASSERT_TRUE(pool.Fetch(owner, id).ok());
  }
  analysis::StructureVerifier verifier;
  EXPECT_TRUE(verifier.VerifyBufferPool(pool).ok());
  // Shrinking the quota evicts down; the invariant must keep holding.
  pool.set_quota(1);
  EXPECT_TRUE(verifier.VerifyBufferPool(pool).ok());
  pool.set_quota(0);
  EXPECT_TRUE(verifier.VerifyBufferPool(pool).ok());
}

TEST(StructureVerifierTest, BufferPoolConcurrencyCheckAfterThreadedRun) {
  PageFile file(512);
  BufferPool pool(&file, 4);
  for (int i = 0; i < 24; ++i) (void)file.Allocate();

  std::atomic<std::uint64_t> fetches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + t);
      for (int i = 0; i < 1500; ++i) {
        OwnerId owner = static_cast<OwnerId>(rng.UniformInt(0, 7));
        PageId id = static_cast<PageId>(rng.UniformInt(0, 23));
        if (pool.Fetch(owner, id).ok()) {
          fetches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  analysis::StructureVerifier verifier;
  EXPECT_TRUE(
      verifier.VerifyBufferPoolConcurrency(pool, fetches.load()).ok());
  // Lost or double-counted accounting must be reported as corruption.
  Status st = verifier.VerifyBufferPoolConcurrency(pool, fetches.load() + 1);
  EXPECT_TRUE(st.IsCorruption());
}

class TarTreeVerifyTest : public ::testing::TestWithParam<GroupingStrategy> {};

TEST_P(TarTreeVerifyTest, FreshTarTreePasses) {
  auto tree = MakeTree(13, 250, GetParam());
  analysis::StructureVerifier verifier;
  analysis::VerifyReport report;
  Status st = verifier.VerifyTarTree(*tree, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(report.nodes_visited, 1u);
  EXPECT_GE(report.entries_visited, 250u);
  // Every entry TIA plus the global TIA.
  EXPECT_GT(report.tias_verified, 250u);
  EXPECT_GT(report.intervals_cross_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, TarTreeVerifyTest,
    ::testing::Values(GroupingStrategy::kSpatial,
                      GroupingStrategy::kAggregate,
                      GroupingStrategy::kIntegral3D),
    [](const ::testing::TestParamInfo<GroupingStrategy>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(StructureVerifierTest, TarTreeOnBpTreeBackendPasses) {
  auto tree = MakeTree(17, 150, GroupingStrategy::kIntegral3D,
                       TiaBackend::kBpTree);
  analysis::StructureVerifier verifier;
  Status st = verifier.VerifyTarTree(*tree);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(StructureVerifierTest, PassesAfterDeletesAndAppends) {
  auto tree = MakeTree(19, 200, GroupingStrategy::kIntegral3D);
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(tree->DeletePoi(static_cast<PoiId>(i * 3)).ok());
  }
  std::unordered_map<PoiId, std::int64_t> batch;
  // Ids congruent to 2 mod 3 were never deleted above.
  for (int i = 0; i < 30; ++i) {
    batch[static_cast<PoiId>(2 + i * 6)] = rng.UniformInt(1, 9);
  }
  ASSERT_TRUE(tree->AppendEpoch(20, batch).ok());
  analysis::StructureVerifier verifier;
  Status st = verifier.VerifyTarTree(*tree);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// ---------------------------------------------------------------------------
// Randomized fuzzing: interleaved mutations, deep verification every N ops.

TEST(StructureVerifierFuzzTest, InterleavedMvbtAndBpTreeMutations) {
  constexpr int kOps = 1200;
  constexpr int kVerifyEvery = 100;

  PageFile mvbt_file(512);
  BufferPool mvbt_pool(&mvbt_file, 10);
  mvbt::Mvbt mv(&mvbt_file, &mvbt_pool, /*owner=*/1);

  PageFile bp_file(512);
  BufferPool bp_pool(&bp_file, 10);
  bptree::BpTree bp(&bp_file, &bp_pool, /*owner=*/1);

  std::map<std::int64_t, std::int64_t> mv_oracle;  // live keys at current v
  std::map<std::int64_t, std::int64_t> bp_oracle;

  analysis::StructureVerifier verifier;
  Rng rng(0xf022);
  std::int64_t version = 0;
  for (int op = 1; op <= kOps; ++op) {
    // One MVBT mutation: insert a fresh key or erase a live one.
    ++version;
    std::int64_t key = rng.UniformInt(0, 300);
    if (mv_oracle.count(key) == 0) {
      ASSERT_TRUE(mv.Insert(version, key, op).ok()) << "op " << op;
      mv_oracle[key] = op;
    } else {
      ASSERT_TRUE(mv.Erase(version, key).ok()) << "op " << op;
      mv_oracle.erase(key);
    }

    // One B+-tree mutation: put (insert-or-overwrite) or erase.
    std::int64_t bkey = rng.UniformInt(0, 300);
    if (rng.UniformInt(0, 2) != 0 || bp_oracle.count(bkey) == 0) {
      ASSERT_TRUE(bp.Put(bkey, op).ok()) << "op " << op;
      bp_oracle[bkey] = op;
    } else {
      ASSERT_TRUE(bp.Erase(bkey).ok()) << "op " << op;
      bp_oracle.erase(bkey);
    }

    if (op % kVerifyEvery != 0 && op != kOps) continue;

    Status st = verifier.VerifyMvbt(mv);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();
    st = verifier.VerifyBpTree(bp);
    ASSERT_TRUE(st.ok()) << "op " << op << ": " << st.ToString();

    // Contents must match the oracles exactly.
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    ASSERT_TRUE(mv.RangeScanCurrent(mvbt::kKeyMin, mvbt::kKeyMax, &got).ok());
    ASSERT_EQ(got.size(), mv_oracle.size()) << "op " << op;
    auto it = mv_oracle.begin();
    for (const auto& [k, v] : got) {
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }

    got.clear();
    ASSERT_TRUE(bp.RangeScan(bptree::kKeyMin, bptree::kKeyMax, &got).ok());
    ASSERT_EQ(got.size(), bp_oracle.size()) << "op " << op;
    auto bit = bp_oracle.begin();
    for (const auto& [k, v] : got) {
      EXPECT_EQ(k, bit->first);
      EXPECT_EQ(v, bit->second);
      ++bit;
    }
  }
}

TEST(StructureVerifierFuzzTest, TarTreeMutationsStayVerifiable) {
  constexpr int kRounds = 8;
  auto tree = MakeTree(29, 120, GroupingStrategy::kIntegral3D);
  analysis::VerifyOptions opt;
  opt.tia_sample_intervals = 2;  // keep the repeated deep passes cheap
  analysis::StructureVerifier verifier(opt);
  Rng rng(31);
  PoiId next_id = 1000;
  std::vector<PoiId> live;
  for (PoiId id = 0; id < 120; ++id) live.push_back(id);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 15; ++i) {
      if (rng.UniformInt(0, 1) == 0 && live.size() > 20) {
        std::size_t pick = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
        ASSERT_TRUE(tree->DeletePoi(live[pick]).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        Poi p{next_id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
        std::vector<std::int32_t> hist(18, 0);
        hist[static_cast<std::size_t>(rng.UniformInt(0, 17))] =
            static_cast<std::int32_t>(rng.UniformInt(1, 50));
        ASSERT_TRUE(tree->InsertPoi(p, hist).ok());
        live.push_back(next_id++);
      }
    }
    Status st = verifier.VerifyTarTree(*tree);
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Corruption injection.

TEST(CorruptionInjectionTest, FlippedMagicByteIsCorruption) {
  auto tree = MakeTree(37, 60, GroupingStrategy::kIntegral3D);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  std::string bytes = buffer.str();
  bytes[1] ^= 0x20;  // 'A' -> 'a'
  std::stringstream corrupted(bytes);
  EXPECT_TRUE(TarTree::Load(corrupted).status().IsCorruption());
}

/// Recomputes every frame checksum of a saved tree (each section's CRC,
/// then the footer's whole-file and frame CRCs), so a deliberate payload
/// edit loads as a well-formed file. Frames are u32 tag | u64 len |
/// payload | u32 crc after the 8-byte preamble; the footer (tag 0xF00F)
/// carries the CRC of every byte before it plus the applied LSN.
std::string ResignFrames(std::string bytes) {
  std::size_t off = 8;
  for (;;) {
    std::uint32_t tag = 0;
    std::uint64_t len = 0;
    std::memcpy(&tag, bytes.data() + off, sizeof(tag));
    std::memcpy(&len, bytes.data() + off + 4, sizeof(len));
    char* payload = &bytes[off + 12];
    if (tag == 0xF00Fu) {
      const std::uint32_t file_crc = Crc32c(bytes.data(), off);
      std::memcpy(payload, &file_crc, sizeof(file_crc));
    }
    const std::uint32_t crc = Crc32c(payload, len);
    std::memcpy(payload + len, &crc, sizeof(crc));
    off += 12 + len + 4;
    if (tag == 0xF00Fu) return bytes;
  }
}

TEST(CorruptionInjectionTest, FlippedTiaRecordByteIsCaughtByDeepVerify) {
  // One POI gets a distinctive aggregate no other field in the file can
  // produce. Its 8-byte little-endian pattern appears in the POI registry
  // (written first), in ancestor summary TIAs, and in the POI's own leaf
  // TIA record; nodes are serialized parent-before-child, so the LAST
  // occurrence in the byte stream is the leaf record. Flipping its low
  // byte leaves a well-formed tree whose leaf TIA total disagrees with
  // the registered POI total — exactly the redundancy the deep verifier
  // cross-checks.
  auto tree = MakeTree(41, 80, GroupingStrategy::kIntegral3D);
  constexpr std::int64_t kDistinctive = 77777;
  std::vector<std::int32_t> hist(18, 0);
  hist[0] = kDistinctive;
  ASSERT_TRUE(tree->InsertPoi({900, {50, 50}}, hist).ok());

  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  const std::string bytes = buffer.str();

  std::string pattern(sizeof(std::int64_t), '\0');
  std::int64_t value = kDistinctive;
  std::memcpy(pattern.data(), &value, sizeof(value));
  std::size_t pos = bytes.rfind(pattern);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_GT(pos, 0u);

  std::string flipped = bytes;
  flipped[pos] ^= 0x01;  // 77777 -> 77776: still positive

  // As saved, the flip never reaches the verifier: the section checksum
  // rejects it at load, naming the damaged section.
  {
    std::stringstream corrupted(flipped);
    auto res = TarTree::Load(corrupted);
    ASSERT_FALSE(res.ok());
    EXPECT_TRUE(res.status().IsCorruption()) << res.status().ToString();
    EXPECT_NE(res.status().ToString().find("checksum"), std::string::npos)
        << res.status().ToString();
  }

  // Re-signed, every checksum agrees with the flipped payload, so the
  // deep verifier is the only line of defense left.
  ASSERT_EQ(ResignFrames(bytes), bytes);
  const std::string corrupted_bytes = ResignFrames(flipped);

  // A shallow load accepts the re-signed file: the tree parses and its
  // R-tree-level invariants still hold.
  {
    std::stringstream corrupted(corrupted_bytes);
    auto shallow = TarTree::Load(corrupted);
    ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  }

  // The deep verifier wired into Load catches it as Corruption.
  {
    std::stringstream corrupted(corrupted_bytes);
    TarTree::LoadOptions load_options;
    load_options.deep_verifier = analysis::DeepVerifyOnLoad();
    auto deep = TarTree::Load(corrupted, load_options);
    ASSERT_FALSE(deep.ok());
    EXPECT_TRUE(deep.status().IsCorruption()) << deep.status().ToString();
  }

  // Control: the unflipped bytes pass the same deep verification.
  {
    std::stringstream clean(bytes);
    TarTree::LoadOptions load_options;
    load_options.deep_verifier = analysis::DeepVerifyOnLoad();
    auto loaded = TarTree::Load(clean, load_options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  }
}

TEST(CorruptionInjectionTest, DeepVerifyOnLoadPassesCleanFile) {
  auto tree = MakeTree(43, 100, GroupingStrategy::kSpatial,
                       TiaBackend::kBpTree);
  std::string path = ::testing::TempDir() + "/verifier_clean.bin";
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  TarTree::LoadOptions load_options;
  load_options.deep_verifier = analysis::DeepVerifyOnLoad();
  auto loaded = TarTree::LoadFromFile(path, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->num_pois(), 100u);
  std::remove(path.c_str());
}

// The verifier against the online-ingestion lifecycle: a logged tree
// verifies read-only (no log growth), a poisoned tree must NOT
// verify as sound, and a recovered tree verifies clean again.
TEST(VerifierWalTest, WalAttachedPoisonedAndRecoveredTrees) {
  const std::string base =
      ::testing::TempDir() + "/verifier_wal." + std::to_string(::getpid());
  const std::string snap = base + ".snap";
  const std::string wal_path = base + ".wal";
  std::remove(snap.c_str());
  std::remove(wal_path.c_str());

  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  TarTree tree(opt);
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(tree.InsertPoi({static_cast<PoiId>(i + 1),
                                {static_cast<double>((i * 37) % 100),
                                 static_cast<double>((i * 61) % 100)}})
                    .ok());
  }
  ASSERT_TRUE(tree.SaveToFile(snap).ok());
  WalWriterOptions wopt;
  wopt.group_commit_records = 1;
  auto wal = std::move(WalWriter::Open(wal_path, wopt, tree.applied_lsn()))
                 .ValueOrDie();
  auto log_and_apply = [&](WalRecord record) {
    TAR_RETURN_NOT_OK(LogRecord(tree, wal.get(), &record));
    return tree.ApplyWalRecord(record);
  };

  // Logged: a full pass succeeds, covers real structure, and —
  // being read-only — appends nothing to the log.
  analysis::StructureVerifier verifier;
  analysis::VerifyReport report;
  const Lsn lsn_before = wal->last_lsn();
  ASSERT_TRUE(
      log_and_apply(WalRecord::MakeInsertPoi(100, 50, 50, {1, 2, 3})).ok());
  ASSERT_GT(wal->last_lsn(), lsn_before);
  const Lsn lsn_logged = wal->last_lsn();
  Status vst = verifier.VerifyTarTree(tree, &report);
  ASSERT_TRUE(vst.ok()) << vst.ToString();
  EXPECT_GT(report.nodes_visited, 0u);
  EXPECT_GT(report.tias_verified, 0u);
  EXPECT_EQ(wal->last_lsn(), lsn_logged);

  // Poisoned: a logged mutation dies mid-apply on an injected page
  // fault; the verifier must refuse to call the tree sound.
  ASSERT_TRUE(
      fail::FaultInjector::Global().Configure("page_file.write=err").ok());
  Status st = log_and_apply(WalRecord::MakeInsertPoi(200, 60, 60, {1, 2, 3}));
  fail::FaultInjector::Global().Clear();
  ASSERT_TRUE(st.IsIoError()) << st.ToString();
  ASSERT_TRUE(tree.poisoned());
  Status pst = verifier.VerifyTarTree(tree);
  ASSERT_TRUE(pst.IsCorruption()) << pst.ToString();
  EXPECT_NE(pst.message().find("poisoned"), std::string::npos)
      << pst.ToString();

  // Recovered: redo from snapshot + log (deep-verifying on load), then a
  // final standalone pass — both clean, and the mutation whose in-memory
  // apply died is present.
  wal.reset();
  TarTree::LoadOptions lopt;
  lopt.deep_verifier = analysis::DeepVerifyOnLoad();
  auto rec = Recover(snap, wal_path, lopt);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  std::unique_ptr<TarTree> recovered = std::move(rec).ValueOrDie();
  EXPECT_FALSE(recovered->poisoned());
  EXPECT_TRUE(recovered->poi_snapshot(100).has_value());
  EXPECT_TRUE(recovered->poi_snapshot(200).has_value());
  analysis::VerifyReport recovered_report;
  Status rst = verifier.VerifyTarTree(*recovered, &recovered_report);
  ASSERT_TRUE(rst.ok()) << rst.ToString();
  EXPECT_GT(recovered_report.nodes_visited, 0u);
  std::remove(snap.c_str());
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace tar
