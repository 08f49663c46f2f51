// Simulated disk: a growable array of fixed-size pages with I/O counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace tar {

/// \brief An in-memory stand-in for a paged disk file.
///
/// The paper's experiments measure node/page accesses rather than wall-clock
/// disk latency, so the "disk" here is RAM plus exact access accounting.
/// All reads and writes go through ReadPage/GetPage so the physical access
/// counters are trustworthy.
///
/// Thread safety: the page directory is latched and the counters are
/// atomic, so Allocate and the page accessors may be called concurrently.
/// Page *payloads* are not latched: concurrent readers are fine, but a
/// writer of a page's bytes must be the only thread touching that page
/// (the query path is read-only; builds are single-threaded).
///
/// Pointer stability: pages are heap-allocated and never freed or moved,
/// so a Page* handed out for an id stays valid, and keeps naming that
/// id's page, for the file's whole lifetime, across any number of later
/// Allocate calls. BufferPool relies on this: its frames keep the Page*
/// and serve hits without taking this file's latch.
///
/// Failure model: every accessor evaluates a failpoint site
/// (`page_file.read`, `page_file.write`, `page_file.alloc`; see
/// docs/internals.md "Failure model") so tests can inject I/O errors and
/// allocation failures deterministically. Unarmed sites cost one relaxed
/// atomic load.
class PageFile {
 public:
  explicit PageFile(std::size_t page_size) : page_size_(page_size) {}

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  std::size_t page_size() const { return page_size_; }
  std::size_t num_pages() const TAR_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pages_.size();
  }

  /// Allocates a zeroed page and returns its id. Fails only under an
  /// injected `page_file.alloc` fault (a real std::bad_alloc aborts).
  Result<PageId> Allocate() TAR_EXCLUDES(mu_);

  /// Direct access for mutation; counts one physical write.
  Result<Page*> GetPageForWrite(PageId id) TAR_EXCLUDES(mu_);

  /// Direct access for reading; counts one physical read.
  Result<const Page*> ReadPage(PageId id) TAR_EXCLUDES(mu_);

  /// Access without touching the counters (used by the buffer pool after it
  /// has already accounted for the miss, and by tests).
  Page* UnaccountedPage(PageId id) TAR_EXCLUDES(mu_);

  std::uint64_t physical_reads() const {
    return physical_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t physical_writes() const {
    return physical_writes_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    physical_reads_.store(0, std::memory_order_relaxed);
    physical_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Bounds-checked page lookup; nullptr when id is out of range.
  Page* PageOrNull(PageId id) TAR_REQUIRES(mu_);

  const std::size_t page_size_;
  mutable Mutex mu_{LockRank::kPageFile, "page_file"};
  /// Heap-allocated so handed-out Page* survive directory growth.
  std::vector<std::unique_ptr<Page>> pages_ TAR_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> physical_reads_{0};
  std::atomic<std::uint64_t> physical_writes_{0};
};

}  // namespace tar
