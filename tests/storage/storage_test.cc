#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar {
namespace {

TEST(PageFileTest, AllocateReadWriteRoundTrip) {
  PageFile file(256);
  PageId id = file.Allocate().ValueOrDie();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(file.num_pages(), 1u);

  {
    auto res = file.GetPageForWrite(id);
    ASSERT_TRUE(res.ok());
    res.ValueOrDie()->WriteAt<std::int64_t>(16, 0xDEADBEEF);
  }
  auto res = file.ReadPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie()->ReadAt<std::int64_t>(16), 0xDEADBEEF);
  EXPECT_EQ(file.physical_reads(), 1u);
  EXPECT_EQ(file.physical_writes(), 1u);
}

TEST(PageFileTest, FreshPagesAreZeroed) {
  PageFile file(128);
  PageId id = file.Allocate().ValueOrDie();
  auto res = file.ReadPage(id);
  ASSERT_TRUE(res.ok());
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(res.ValueOrDie()->data()[i], 0);
  }
}

TEST(PageFileTest, OutOfRangeAccessFails) {
  PageFile file(128);
  EXPECT_TRUE(file.ReadPage(3).status().IsOutOfRange());
  EXPECT_TRUE(file.GetPageForWrite(3).status().IsOutOfRange());
  EXPECT_EQ(file.UnaccountedPage(3), nullptr);
}

TEST(BufferPoolTest, HitsAreFreeMissesCostAPhysicalRead) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, /*quota_per_owner=*/2);

  bool hit = true;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(file.physical_reads(), 1u);

  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(file.physical_reads(), 1u);  // served from the pool
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, LruEvictionWithinQuota) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  PageId b = file.Allocate().ValueOrDie();
  PageId c = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 2);

  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, b, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());  // a is now MRU
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(1, c, &hit).ok());  // evicts b (LRU)
  EXPECT_FALSE(hit);
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(1, b, &hit).ok());
  EXPECT_FALSE(hit) << "b must have been evicted";
}

TEST(BufferPoolTest, QuotasAreIndependentPerOwner) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 1);

  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(2, a, &hit).ok());
  EXPECT_FALSE(hit) << "owner 2 has its own cache";
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(2, a, &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(BufferPoolTest, ZeroQuotaDisablesCaching) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 0);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(file.physical_reads(), 2u);
}

TEST(BufferPoolTest, EvictAndClear) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 4);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  pool.Evict(1);
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  pool.Clear();
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(BufferPoolTest, WritesAreVisibleThroughThePool) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 2);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());  // cache the page
  {
    auto res = pool.FetchForWrite(1, a);
    ASSERT_TRUE(res.ok());
    res.ValueOrDie()->WriteAt<std::int32_t>(0, 1234);
  }
  auto res = pool.Fetch(1, a, &hit);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(res.ValueOrDie()->ReadAt<std::int32_t>(0), 1234);
}

// An exact-LRU reference: one std::list per owner, front = most recent.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t quota) : quota_(quota) {}

  bool Touch(OwnerId owner, PageId id) {
    if (quota_ == 0) return false;
    std::list<PageId>& lru = lists_[owner];
    auto it = std::find(lru.begin(), lru.end(), id);
    if (it != lru.end()) {
      lru.splice(lru.begin(), lru, it);
      return true;
    }
    lru.push_front(id);
    while (lru.size() > quota_) lru.pop_back();
    return false;
  }
  void SetQuota(std::size_t quota) {
    quota_ = quota;
    for (auto& [owner, lru] : lists_) {
      while (lru.size() > quota_) lru.pop_back();
    }
  }
  void Evict(OwnerId owner) { lists_.erase(owner); }
  void Clear() { lists_.clear(); }
  std::size_t quota() const { return quota_; }

 private:
  std::size_t quota_;
  std::map<OwnerId, std::list<PageId>> lists_;
};

TEST(BufferPoolTest, MatchesReferenceLruModel) {
  // Owners 0/16/32 and 1/17 share a latch shard; 5 is alone in its own.
  const std::vector<OwnerId> owners = {0, 16, 32, 1, 17, 5};
  const std::vector<std::size_t> quotas = {0, 1, 3, 10};
  for (std::size_t initial : quotas) {
    for (std::uint32_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("quota " + std::to_string(initial) + " seed " +
                   std::to_string(seed));
      PageFile file(128);
      for (int i = 0; i < 24; ++i) ASSERT_TRUE(file.Allocate().ok());
      BufferPool pool(&file, initial);
      ReferenceLru ref(initial);
      std::mt19937 rng(seed);
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      const int kOps = 4000;
      for (int op = 0; op < kOps; ++op) {
        if (op == kOps / 2 && ref.quota() > 0) {
          // Shrink mid-run: the pool must drop exactly the LRU tails.
          pool.set_quota(ref.quota() / 2);
          ref.SetQuota(ref.quota() / 2);
        }
        const OwnerId owner = owners[rng() % owners.size()];
        // Skewed ids so that both hits and evictions are common.
        const std::uint32_t span = rng() % 4 == 0 ? 24 : 6;
        const auto id = static_cast<PageId>(rng() % span);
        const std::uint32_t pick = rng() % 100;
        if (pick < 70) {
          bool hit = false;
          auto res = pool.Fetch(owner, id, &hit);
          ASSERT_TRUE(res.ok());
          EXPECT_EQ(res.ValueOrDie(), file.UnaccountedPage(id));
          const bool expected = ref.Touch(owner, id);
          ASSERT_EQ(hit, expected) << "op " << op;
          (expected ? hits : misses) += 1;
        } else if (pick < 88) {
          auto res = pool.FetchForWrite(owner, id);
          ASSERT_TRUE(res.ok());
          EXPECT_EQ(res.ValueOrDie(), file.UnaccountedPage(id));
          ref.Touch(owner, id);
        } else if (pick < 95) {
          pool.Evict(owner);
          ref.Evict(owner);
        } else if (pick < 97) {
          pool.Clear();
          ref.Clear();
        } else {
          const std::size_t q = quotas[rng() % quotas.size()];
          pool.set_quota(q);
          ref.SetQuota(q);
        }
        ASSERT_EQ(pool.hits(), hits);
        ASSERT_EQ(pool.misses(), misses);
        ASSERT_TRUE(pool.CheckIntegrity().ok())
            << pool.CheckIntegrity().ToString();
      }
      EXPECT_EQ(pool.misses(), file.physical_reads());
    }
  }
}

TEST(BufferPoolTest, CachedPageSurvivesLaterAllocations) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 2);
  bool hit = true;
  auto first = pool.Fetch(1, a, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  // Grow the directory far past any initial capacity: the frame's page
  // pointer must still be the file's page for `a`.
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(file.Allocate().ok());
  auto again = pool.Fetch(1, a, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again.ValueOrDie(), first.ValueOrDie());
  EXPECT_EQ(again.ValueOrDie(), file.UnaccountedPage(a));
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

}  // namespace
}  // namespace tar
