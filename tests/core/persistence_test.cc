#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "core/tar_tree.h"

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

class PersistenceTest : public ::testing::TestWithParam<GroupingStrategy> {};

TEST_P(PersistenceTest, RoundTripPreservesResultsAndCosts) {
  auto tree = MakeTree(5, 300, GetParam());
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());

  auto loaded_res = TarTree::Load(buffer);
  ASSERT_TRUE(loaded_res.ok()) << loaded_res.status().ToString();
  std::unique_ptr<TarTree> loaded = std::move(loaded_res).ValueOrDie();

  EXPECT_EQ(loaded->num_pois(), tree->num_pois());
  EXPECT_EQ(loaded->num_nodes(), tree->num_nodes());
  EXPECT_EQ(loaded->height(), tree->height());
  EXPECT_EQ(loaded->max_total(), tree->max_total());
  ASSERT_TRUE(loaded->CheckInvariants().ok());

  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    KnntaQuery q;
    q.point = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
    std::int64_t e0 = rng.UniformInt(0, 17);
    std::int64_t e1 = rng.UniformInt(e0, 17);
    q.interval = {e0 * kEpochLen, (e1 + 1) * kEpochLen - 1};
    q.k = 1 + trial;
    q.alpha0 = rng.Uniform(0.1, 0.9);

    std::vector<KnntaResult> a, b;
    AccessStats sa, sb;
    ASSERT_TRUE(tree->Query(q, &a, &sa).ok());
    ASSERT_TRUE(loaded->Query(q, &b, &sb).ok());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].poi, b[i].poi) << "trial " << trial;
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
      EXPECT_EQ(a[i].aggregate, b[i].aggregate);
    }
    // Identical structure => identical R-tree access counts, up to the
    // priority-queue tie-breaks that compare node ids (ids are compacted
    // by Save, so exact score ties may expand in a different order).
    EXPECT_NEAR(static_cast<double>(sa.rtree_node_reads),
                static_cast<double>(sb.rtree_node_reads), 2.0)
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PersistenceTest,
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

TEST(PersistenceTest, RoundTripOnBpTreeBackend) {
  auto tree = MakeTree(7, 150, GroupingStrategy::kIntegral3D,
                       TiaBackend::kBpTree);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  auto loaded = TarTree::Load(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie()->options().tia_backend, TiaBackend::kBpTree);
  EXPECT_TRUE(loaded.ValueOrDie()->CheckInvariants().ok());
}

TEST(PersistenceTest, EmptyTreeRoundTrip) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, kEpochLen);
  TarTree tree(opt);
  std::stringstream buffer;
  ASSERT_TRUE(tree.Save(buffer).ok());
  auto loaded = TarTree::Load(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.ValueOrDie()->empty());
}

TEST(PersistenceTest, LoadedTreeRemainsMutable) {
  auto tree = MakeTree(11, 120, GroupingStrategy::kIntegral3D);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  auto loaded = std::move(TarTree::Load(buffer)).ValueOrDie();
  // Continue inserting and deleting on the loaded tree.
  ASSERT_TRUE(loaded->InsertPoi({9999, {5, 5}}, {3, 0, 7}).ok());
  ASSERT_TRUE(loaded->DeletePoi(0).ok());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  std::unordered_map<PoiId, std::int64_t> batch{{9999, 4}};
  ASSERT_TRUE(loaded->AppendEpoch(10, batch).ok());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
}

TEST(PersistenceTest, RejectsGarbageAndTruncation) {
  std::stringstream garbage("not a tartree file at all");
  EXPECT_TRUE(TarTree::Load(garbage).status().IsCorruption());

  auto tree = MakeTree(13, 80, GroupingStrategy::kIntegral3D);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(TarTree::Load(truncated).ok());

  // Bad version: only format 2 loads; the retired flat format 1 and any
  // unknown version are refused before a byte of payload is parsed.
  for (const char version : {char{1}, char{99}}) {
    std::string bad = bytes;
    bad[4] = version;
    std::stringstream badver(bad);
    EXPECT_TRUE(TarTree::Load(badver).status().IsNotSupported())
        << "version " << int{version};
  }
}

TEST(PersistenceTest, RejectsPreLsnCrcOnlyFooter) {
  // Files written before the footer carried an applied WAL LSN end in a
  // 20-byte footer frame (u32 tag | u64 len=4 | u32 file_crc | u32
  // frame_crc) instead of the 28-byte one (payload = file_crc + LSN).
  // Craft one from a fresh save: same file_crc (the bytes before the
  // footer are unchanged), frame CRC recomputed over the 4-byte payload.
  // Without an LSN the file cannot anchor recovery, so it is corrupt.
  auto tree = MakeTree(19, 60, GroupingStrategy::kIntegral3D);
  std::stringstream buffer;
  ASSERT_TRUE(tree->Save(buffer).ok());
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 28u);

  const std::size_t footer = bytes.size() - 28;
  std::uint32_t tag = 0;
  std::memcpy(&tag, bytes.data() + footer, sizeof(tag));
  ASSERT_EQ(tag, 0xF00Fu);
  std::uint32_t file_crc = 0;
  std::memcpy(&file_crc, bytes.data() + footer + 12, sizeof(file_crc));

  std::string legacy = bytes.substr(0, footer);
  const std::uint64_t len = 4;
  const std::uint32_t frame_crc =
      Crc32c(reinterpret_cast<const char*>(&file_crc), sizeof(file_crc));
  legacy.append(reinterpret_cast<const char*>(&tag), sizeof(tag));
  legacy.append(reinterpret_cast<const char*>(&len), sizeof(len));
  legacy.append(reinterpret_cast<const char*>(&file_crc), sizeof(file_crc));
  legacy.append(reinterpret_cast<const char*>(&frame_crc), sizeof(frame_crc));

  std::stringstream in(legacy);
  auto loaded = TarTree::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(PersistenceTest, FileRoundTrip) {
  auto tree = MakeTree(17, 100, GroupingStrategy::kIntegral3D);
  std::string path = ::testing::TempDir() + "/tartree_test.bin";
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  auto loaded = TarTree::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->num_pois(), 100u);
  EXPECT_TRUE(TarTree::LoadFromFile("/nonexistent/x.bin").status()
                  .IsIoError());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tar
