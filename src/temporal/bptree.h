// Disk-paged B+-tree (int64 keys and values).
//
// This is the temporal backend of the aRB-tree family (Papadias et al.,
// "Historical spatio-temporal aggregation"): each R-tree entry points to a
// B-tree over per-epoch aggregates. The paper argues a B-tree can only
// index *fixed-length* epochs (keys are scalars, not intervals) — this
// implementation exists so that claim is testable: `Tia` can run on either
// this B+-tree or the multiversion B-tree and the benches compare them.
//
// Same deployment model as the MVBT: nodes serialized into PageFile pages,
// query reads through the BufferPool with per-owner quotas.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar::bptree {

using Key = std::int64_t;
using Value = std::int64_t;

constexpr Key kKeyMin = INT64_MIN;
constexpr Key kKeyMax = INT64_MAX;

/// Serialized-node layout: 8-byte header (leaf flag, count), then `count`
/// slots of 16 bytes (key, value-or-child). Internal nodes hold separator
/// keys: child i covers keys in [key_{i-1}, key_i) with key_{-1} = -inf.
struct BpNodeLayout {
  static constexpr std::size_t kHeaderBytes = 8;
  static constexpr std::size_t kSlotBytes = 16;
  static std::size_t Capacity(std::size_t page_size) {
    return (page_size - kHeaderBytes) / kSlotBytes;
  }
};

/// \brief A single-version disk-paged B+-tree.
///
/// Thread safety: const query methods (Get, RangeScan, RangeSum) are safe
/// concurrently — page access goes through the latched buffer pool;
/// Put/Erase require external exclusion.
class BpTree {
 public:
  BpTree(PageFile* file, BufferPool* pool, OwnerId owner);

  BpTree(BpTree&&) = default;
  BpTree& operator=(BpTree&&) = default;

  /// Inserts or overwrites a key.
  Status Put(Key key, Value value);

  /// Removes a key; NotFound if absent.
  Status Erase(Key key);

  Result<std::optional<Value>> Get(Key key,
                                   AccessStats* stats = nullptr) const;

  /// Calls fn(key, value) for every pair with key in [lo, hi], in key
  /// order, reading each page off the pool without materializing nodes.
  /// RangeScan and RangeSum are built on it.
  template <typename Fn>
  Status Scan(Key lo, Key hi, Fn&& fn, AccessStats* stats = nullptr) const {
    if (root_ == kInvalidPageId) return Status::OK();
    return ScanRec(root_, lo, hi, fn, stats);
  }

  /// All pairs with key in [lo, hi], in key order.
  Status RangeScan(Key lo, Key hi, std::vector<std::pair<Key, Value>>* out,
                   AccessStats* stats = nullptr) const;

  /// Sum of values with key in [lo, hi] (no output materialization).
  Result<std::int64_t> RangeSum(Key lo, Key hi,
                                AccessStats* stats = nullptr) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// Structural checks: key order, separator consistency, fill bounds,
  /// uniform leaf depth. For tests.
  Status CheckInvariants() const;

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    std::vector<Value> values;  // leaf: payloads; internal: child PageIds
  };

  Status Load(PageId id, Node* node) const;
  Result<const Page*> FetchForQuery(PageId id, AccessStats* stats) const;
  Status Store(PageId id, const Node& node);
  PageId AllocateNode(const Node& node, Status* st);

  /// Recursive insert; sets *split_key / *split_page when the child split.
  Status PutRec(PageId page, Key key, Value value, bool* grew,
                Key* split_key, PageId* split_page);

  /// Recursive erase; sets *underflow when the node dropped below minimum.
  Status EraseRec(PageId page, Key key, bool* underflow);

  template <typename Fn>
  Status ScanRec(PageId page_id, Key lo, Key hi, Fn& fn,
                 AccessStats* stats) const;

  Status CheckRec(PageId page, Key lo, Key hi, std::size_t depth,
                  std::size_t* leaf_depth, const std::string& path) const;

  PageFile* file_;
  BufferPool* pool_;
  OwnerId owner_;
  std::size_t capacity_;
  std::size_t min_fill_;
  PageId root_ = kInvalidPageId;
  std::size_t size_ = 0;
};

template <typename Fn>
Status BpTree::ScanRec(PageId page_id, Key lo, Key hi, Fn& fn,
                       AccessStats* stats) const {
  TAR_ASSIGN_OR_RETURN(const Page* page, FetchForQuery(page_id, stats));
  const bool is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
  const std::uint16_t count = page->ReadAt<std::uint16_t>(2);
  if (is_leaf) {
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::size_t off =
          BpNodeLayout::kHeaderBytes + i * BpNodeLayout::kSlotBytes;
      const Key k = page->ReadAt<Key>(off);
      if (k < lo) continue;
      if (k > hi) break;
      fn(k, page->ReadAt<Value>(off + 8));
    }
    return Status::OK();
  }
  Key lower = kKeyMin;
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::size_t off =
        BpNodeLayout::kHeaderBytes + i * BpNodeLayout::kSlotBytes;
    const Key upper = page->ReadAt<Key>(off);
    // Child i covers [lower, upper); recurse iff it intersects [lo, hi].
    if (lower <= hi && upper > lo) {
      const auto child = static_cast<PageId>(page->ReadAt<Value>(off + 8));
      TAR_RETURN_NOT_OK(ScanRec(child, lo, hi, fn, stats));
    }
    lower = upper;
    if (lower > hi) break;
  }
  return Status::OK();
}

}  // namespace tar::bptree
