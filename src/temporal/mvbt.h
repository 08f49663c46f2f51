// Disk-based Multiversion B-tree (Becker, Gschwind, Ohler, Seeger,
// Widmayer: "An asymptotically optimal multiversion B-tree", VLDBJ 1996).
//
// The paper implements each TIA (temporal index on the aggregate) with this
// structure because it is asymptotically optimal for versioned key access.
// This implementation supports insertions and deletions at a monotonically
// non-decreasing current version and exact/range queries at any historical
// version. Nodes are serialized into fixed-size pages of a PageFile, and
// query-time reads are routed through a BufferPool so that buffer hits are
// not charged to the node-access metric.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar::mvbt {

using Key = std::int64_t;
using Version = std::int64_t;
using Value = std::int64_t;

constexpr Key kKeyMin = INT64_MIN;
constexpr Key kKeyMax = INT64_MAX;
/// Sentinel end version of a live entry.
constexpr Version kVersionAlive = INT64_MAX;

/// \brief One slot of an MVBT node.
///
/// Leaf entries hold a data record: key in [key_lo] (key_hi unused),
/// lifetime [v_start, v_end), payload `value`. Internal entries route to a
/// child page responsible for keys [key_lo, key_hi) during [v_start, v_end);
/// `value` stores the child PageId.
struct Entry {
  Key key_lo = 0;
  Key key_hi = 0;
  Version v_start = 0;
  Version v_end = kVersionAlive;
  Value value = 0;

  bool alive() const { return v_end == kVersionAlive; }
  bool AliveAt(Version v) const { return v_start <= v && v < v_end; }

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Serialized-node byte layout constants.
struct NodeLayout {
  static constexpr std::size_t kHeaderBytes = 8;
  static constexpr std::size_t kEntryBytes = 40;
  static std::size_t Capacity(std::size_t page_size) {
    return (page_size - kHeaderBytes) / kEntryBytes;
  }
};

/// \brief The multiversion B-tree.
///
/// Thread safety: const query methods (Lookup, RangeScan*) are safe
/// concurrently — page access goes through the latched buffer pool;
/// Insert/Erase require external exclusion.
class Mvbt {
 public:
  /// \param pool buffer pool over `file`; query reads go through it using
  ///        `owner` as the cache-quota owner (one TIA = one owner).
  Mvbt(PageFile* file, BufferPool* pool, OwnerId owner);

  Mvbt(const Mvbt&) = delete;
  Mvbt& operator=(const Mvbt&) = delete;
  Mvbt(Mvbt&&) = default;
  Mvbt& operator=(Mvbt&&) = default;

  /// Inserts (key, value) at version v. Versions must be non-decreasing
  /// across all updates. Duplicate live keys are rejected.
  Status Insert(Version v, Key key, Value value);

  /// Logically deletes `key` at version v (the key remains visible at
  /// versions < v).
  Status Erase(Version v, Key key);

  /// Value of `key` as of version v, or nullopt if not alive there.
  Result<std::optional<Value>> Lookup(Version v, Key key,
                                      AccessStats* stats = nullptr) const;

  /// Calls fn(key, value) for every record alive at version v with key in
  /// [lo, hi], in tree (not key) order, reading each page off the pool
  /// without materializing nodes or results. RangeScan and CountAlive are
  /// built on it; Tia::Aggregate sums inside the visit.
  template <typename Fn>
  Status Scan(Version v, Key lo, Key hi, Fn&& fn,
              AccessStats* stats = nullptr) const {
    auto root = RootAt(v);
    if (!root.has_value()) return Status::OK();
    return ScanNode(v, root->page, lo, hi, fn, stats);
  }

  /// All records alive at version v with key in [lo, hi], in key order.
  Status RangeScan(Version v, Key lo, Key hi,
                   std::vector<std::pair<Key, Value>>* out,
                   AccessStats* stats = nullptr) const;

  /// Range scan at the latest version used by any update.
  Status RangeScanCurrent(Key lo, Key hi,
                          std::vector<std::pair<Key, Value>>* out,
                          AccessStats* stats = nullptr) const {
    return RangeScan(last_version_, lo, hi, out, stats);
  }

  Version last_version() const { return last_version_; }
  bool empty() const { return roots_.empty(); }

  /// Number of records alive at version v (O(result) scan; for tests).
  Result<std::size_t> CountAlive(Version v) const;

  /// Structural invariant checks (block capacity, weak version condition,
  /// responsibility-range partitioning). Intended for tests.
  Status CheckInvariants() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t min_live() const { return min_live_; }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<Entry> entries;

    std::size_t CountAliveEntries() const {
      std::size_t n = 0;
      for (const Entry& e : entries) n += e.alive();
      return n;
    }
  };

  /// Root directory ("root*"): which page was the root during [v_start,
  /// v_end). Kept in memory; it is tiny.
  struct RootEntry {
    Version v_start;
    Version v_end;
    PageId page;
    bool is_leaf;
  };

  /// Pending update against a parent node: kill the live entries that point
  /// to `dead_children` at version v and append `new_entries`.
  struct ParentOp {
    std::vector<PageId> dead_children;
    std::vector<Entry> new_entries;
  };

  Status LoadForUpdate(PageId id, Node* node) const;

  /// Query-path page access through the buffer pool; hits are recorded as
  /// free, misses as TIA page reads. Queries read entries directly off the
  /// returned page (EntryAt) — no node materialization.
  Result<const Page*> FetchForQuery(PageId id, AccessStats* stats) const;
  static Entry EntryAt(const Page& page, std::size_t index);

  Status Store(PageId id, const Node& node);
  PageId AllocateNode(const Node& node, Status* st);

  /// Root page alive at version v, or nullopt for an empty tree at v.
  std::optional<RootEntry> RootAt(Version v) const;

  /// Descends from the live root to the leaf responsible for `key`,
  /// recording the page path (root first).
  Status FindLeafPath(Version v, Key key, std::vector<PageId>* path,
                      Node* leaf) const;

  /// Restores structural invariants of the node at path[level] after a
  /// mutation, propagating structural changes toward the root.
  Status Restructure(Version v, const std::vector<PageId>& path,
                     std::size_t level, Node node);

  /// Version-split `node` (page `page_id`): copies the live entries into a
  /// fresh node (possibly merging a sibling found in `parent`, possibly key
  /// splitting) and fills `op` with the parent updates. `parent` is nullptr
  /// when the node is the root.
  Status VersionSplit(Version v, PageId page_id, const Node& node,
                      Node* parent, ParentOp* op);

  template <typename Fn>
  Status ScanNode(Version v, PageId page_id, Key lo, Key hi, Fn& fn,
                  AccessStats* stats) const;

  PageFile* file_;
  BufferPool* pool_;
  OwnerId owner_;
  std::size_t capacity_;     // b: max entries per node
  std::size_t min_live_;     // d: weak version condition
  std::size_t strong_low_;   // lower strong bound after restructuring
  std::size_t strong_high_;  // upper strong bound after restructuring
  Version last_version_ = 0;
  std::vector<RootEntry> roots_;
};

template <typename Fn>
Status Mvbt::ScanNode(Version v, PageId page_id, Key lo, Key hi, Fn& fn,
                      AccessStats* stats) const {
  TAR_ASSIGN_OR_RETURN(const Page* page, FetchForQuery(page_id, stats));
  const bool is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
  const std::uint16_t count = page->ReadAt<std::uint16_t>(2);
  for (std::uint16_t i = 0; i < count; ++i) {
    const Entry e = EntryAt(*page, i);
    if (!e.AliveAt(v)) continue;
    if (is_leaf) {
      if (lo <= e.key_lo && e.key_lo <= hi) fn(e.key_lo, e.value);
    } else if (e.key_lo <= hi && lo < e.key_hi) {
      TAR_RETURN_NOT_OK(
          ScanNode(v, static_cast<PageId>(e.value), lo, hi, fn, stats));
    }
  }
  return Status::OK();
}

}  // namespace tar::mvbt
