#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

namespace {

// Counters are written only under their shard's latch, so a plain
// load-and-store is exact; readers sum them unlatched.
void BumpLocked(std::atomic<std::uint64_t>& counter) {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

bool BufferPool::TouchLocked(Shard& shard, OwnerId owner, PageId id,
                             const Page** page) {
  shard.mu.AssertHeld();
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  if (quota == 0) return false;
  OwnerCache& frames = shard.caches[owner];
  for (auto it = frames.begin(); it != frames.end(); ++it) {
    if (it->id != id) continue;
    *page = it->page;
    std::rotate(frames.begin(), it, it + 1);
    return true;
  }
  *page = file_->UnaccountedPage(id);
  frames.insert(frames.begin(), Frame{id, *page});
  if (frames.size() > quota) frames.resize(quota);
  return false;
}

Result<const Page*> BufferPool::Fetch(OwnerId owner, PageId id,
                                      bool* was_hit) {
  // Injected before the LRU is touched, so a failed fetch leaves the pool
  // state exactly as it was (CheckIntegrity holds across injected faults).
  TAR_INJECT_FAULT("buffer_pool.fetch");
  const Page* page = nullptr;
  bool hit;
  {
    Shard& shard = ShardFor(owner);
    MutexLock lock(&shard.mu);
    hit = TouchLocked(shard, owner, id, &page);
    BumpLocked(hit ? shard.hits : shard.misses);
  }
  if (was_hit) *was_hit = hit;
  if (hit) {
    if (MetricsEnabled()) {
      // Resolved once and cached; the hot path pays one relaxed add.
      static Counter* const hits_metric =
          MetricsRegistry::Global().GetCounter("buffer_pool.hits");
      hits_metric->Increment();
    }
    if (page == nullptr) return Status::OutOfRange("page id out of range");
    return page;
  }
  if (MetricsEnabled()) {
    static Counter* const misses_metric =
        MetricsRegistry::Global().GetCounter("buffer_pool.misses");
    misses_metric->Increment();
  }
  return file_->ReadPage(id);
}

Result<Page*> BufferPool::FetchForWrite(OwnerId owner, PageId id) {
  TAR_INJECT_FAULT("buffer_pool.fetch");
  {
    // Write-through: cache but always charge the write.
    Shard& shard = ShardFor(owner);
    MutexLock lock(&shard.mu);
    const Page* unused = nullptr;
    TouchLocked(shard, owner, id, &unused);
  }
  return file_->GetPageForWrite(id);
}

BufferPool::CounterSnapshot BufferPool::Snapshot() const {
  CounterSnapshot sum;
  for (const Shard& shard : shards_) {
    sum.hits += shard.hits.load(std::memory_order_relaxed);
    sum.misses += shard.misses.load(std::memory_order_relaxed);
  }
  return sum;
}

void BufferPool::ResetCounters() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
  }
}

Status BufferPool::CheckIntegrity() const {
  const std::size_t num_pages = file_->num_pages();
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    // Stable while any shard latch is held: writers hold all of them.
    const std::size_t quota = quota_.load(std::memory_order_relaxed);
    for (const auto& [owner, frames] : shard.caches) {
      const std::string who = "owner " + std::to_string(owner);
      if (quota == 0 && !frames.empty()) {
        return Status::Corruption(who + ": cached pages with a zero quota");
      }
      if (frames.size() > quota) {
        return Status::Corruption(who + ": residency exceeds quota (" +
                                  std::to_string(frames.size()) + " > " +
                                  std::to_string(quota) + ")");
      }
      for (auto it = frames.begin(); it != frames.end(); ++it) {
        const std::string page = "page " + std::to_string(it->id);
        for (auto dup = frames.begin(); dup != it; ++dup) {
          if (dup->id == it->id) {
            return Status::Corruption(who + ": two frames for " + page);
          }
        }
        if (it->id >= num_pages) {
          return Status::Corruption(who + ": cached " + page +
                                    " beyond the end of the file");
        }
        if (it->page != file_->UnaccountedPage(it->id)) {
          return Status::Corruption(who + ": frame for " + page +
                                    " carries a different page");
        }
      }
    }
  }
  return Status::OK();
}

// Holds every shard latch so the quota store and the eviction sweep are
// one atomic step: once set_quota returns, no owner is resident above the
// new quota. The shard latches share one rank, so the hierarchy requires
// ascending construction (= index) order — and since PR 6 that order is
// *checked*, not conventional: in debug builds each Lock() below runs the
// lock-order detector, which aborts on a descending same-rank acquisition
// (see LockOrderTest.DescendingSameRankSweepDies). The static analysis
// cannot follow a loop that accumulates locks, hence the opt-out.
void BufferPool::set_quota(std::size_t quota) TAR_NO_THREAD_SAFETY_ANALYSIS {
  for (Shard& shard : shards_) shard.mu.Lock();
  for (Shard& shard : shards_) shard.mu.AssertHeld();
  quota_.store(quota, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    for (auto& [owner, frames] : shard.caches) {
      if (frames.size() > quota) frames.resize(quota);
    }
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    it->mu.Unlock();
  }
}

void BufferPool::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.caches.clear();
  }
}

void BufferPool::Evict(OwnerId owner) {
  Shard& shard = ShardFor(owner);
  MutexLock lock(&shard.mu);
  shard.caches.erase(owner);
}

}  // namespace tar
