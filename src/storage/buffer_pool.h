// LRU buffer pool with per-owner quotas.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/page_file.h"

namespace tar {

/// Identifies the logical owner of a set of pages (one TIA = one owner).
using OwnerId = std::uint32_t;

/// \brief Per-owner LRU page cache over a PageFile.
///
/// The paper assigns each TIA a maximum of 10 buffer slots; the collective
/// processing experiments additionally compare against a zero-buffer
/// configuration. A fetch that hits the pool is free; a miss costs one
/// simulated disk read, which is what the node-access metric charges.
///
/// Each owner's cache is a short MRU array of frames, and every frame
/// carries the `const Page*` it caches, so a hit returns the page under
/// the owner's shard latch alone. That relies on PageFile's guarantee that
/// a Page* stays valid for the file's lifetime (pages are never freed or
/// moved). Eviction order is exact LRU: a hit rotates its frame to the
/// front, a miss inserts at the front and drops the back beyond quota.
///
/// Thread safety: fully thread-safe. Owner caches are partitioned into
/// shards, each guarded by its own latch; each shard also keeps its own
/// hit/miss counters, bumped under that latch and summed on read. The
/// latch hierarchy is documented in docs/internals.md ("Threading
/// model"): a shard latch may be held while acquiring the PageFile latch
/// (a miss resolves its page that way), never the reverse, and the only
/// multi-latch path (set_quota) takes shard latches in ascending index
/// order.
class BufferPool {
 public:
  /// \param quota_per_owner max cached pages per owner; 0 disables caching.
  BufferPool(PageFile* file, std::size_t quota_per_owner)
      : file_(file), quota_(quota_per_owner) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page for reading. Sets *was_hit (if non-null) to whether the
  /// page was served from the pool.
  Result<const Page*> Fetch(OwnerId owner, PageId id, bool* was_hit = nullptr);

  /// Fetches a page for mutation. Write-through: the page is also cached.
  Result<Page*> FetchForWrite(OwnerId owner, PageId id);

  /// Drops every cached page (all owners).
  void Clear();

  /// Drops the cached pages of one owner.
  void Evict(OwnerId owner);

  /// Changes the per-owner quota, evicting LRU pages down to the new limit.
  /// The only multi-latch operation: it holds every shard latch so that no
  /// owner can be observed over-quota once it returns.
  void set_quota(std::size_t quota);
  std::size_t quota() const {
    return quota_.load(std::memory_order_relaxed);
  }

  /// \brief A point-in-time reading of the cumulative hit/miss counters.
  ///
  /// The counters themselves are cumulative over the pool's lifetime
  /// (index load, builds and every query batch all advance them), so any
  /// rate derived from the raw totals drifts as unrelated work accrues.
  /// Correct per-batch reporting takes a snapshot before and after the
  /// batch and works on the delta.
  struct CounterSnapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t Fetches() const { return hits + misses; }
    double HitRate() const {
      const std::uint64_t n = Fetches();
      return n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                   : 0.0;
    }
    /// Counter advance since `earlier` (earlier must not be newer).
    CounterSnapshot DeltaSince(const CounterSnapshot& earlier) const {
      return CounterSnapshot{hits - earlier.hits, misses - earlier.misses};
    }
  };

  /// Cumulative counts, summed over the shards.
  CounterSnapshot Snapshot() const;
  std::uint64_t hits() const { return Snapshot().hits; }
  std::uint64_t misses() const { return Snapshot().misses; }
  void ResetCounters();

  /// Structural integrity: every owner's residency is within quota (and
  /// empty under a zero quota), no page has two frames in one owner's
  /// cache, every cached page id exists in the backing file, and every
  /// frame carries the page the file holds under its id. Returns
  /// Status::Corruption naming the owner of the first inconsistent cache.
  /// Safe to call concurrently with fetches (each shard is checked under
  /// its latch).
  Status CheckIntegrity() const;

  PageFile* file() { return file_; }
  const PageFile* file() const { return file_; }

 private:
  /// One cached page. `page` is the file's Page* for `id`, resolved when
  /// the frame is created (nullptr only for an id beyond the file's end).
  struct Frame {
    PageId id;
    const Page* page;
  };
  /// Front = most recently used; at most quota() frames.
  using OwnerCache = std::vector<Frame>;

  /// One latch-sharded slice of the owner map. Owners hash to a fixed
  /// shard, so one owner's LRU state is only ever touched under one latch.
  /// Cache-line aligned so that readers on different shards share no line.
  struct alignas(64) Shard {
    /// Equal rank across all 16 shards; multi-acquired only in ascending
    /// construction (= index) order, which the debug detector checks.
    mutable Mutex mu{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    std::unordered_map<OwnerId, OwnerCache> caches TAR_GUARDED_BY(mu);
    /// Written only under `mu`; atomic so the sums may read them unlatched.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  static constexpr std::size_t kNumShards = 16;

  Shard& ShardFor(OwnerId owner) const {
    return shards_[owner % kNumShards];
  }

  /// Marks (owner, id) resident in `shard` as the most recently used
  /// frame, evicting the owner's LRU frames beyond quota. Returns true if
  /// it was already resident, with `*page` set to the frame's page; a new
  /// frame resolves its page from the file (under this shard latch). Always
  /// false, with nothing cached, under a zero quota.
  bool TouchLocked(Shard& shard, OwnerId owner, PageId id, const Page** page)
      TAR_REQUIRES(shard.mu);

  PageFile* file_;
  std::atomic<std::size_t> quota_;  ///< written only under all shard latches
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace tar
