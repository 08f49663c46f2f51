#include "temporal/mvbt.h"

#include <algorithm>

#include "common/check.h"

namespace tar::mvbt {

namespace {

/// Entries whose lifetime starts at the split version are invisible in the
/// historical node (which is only reachable for versions < v), so they move
/// to the copy rather than being duplicated.
bool MovesToCopy(const Entry& e, Version v) {
  return e.alive() && e.v_start == v;
}

}  // namespace

Mvbt::Mvbt(PageFile* file, BufferPool* pool, OwnerId owner)
    : file_(file), pool_(pool), owner_(owner),
      capacity_(NodeLayout::Capacity(file->page_size())) {
  TAR_CHECK(capacity_ >= 8 && "page size too small for an MVBT node");
  min_live_ = std::max<std::size_t>(2, capacity_ / 5);
  strong_low_ = min_live_ + std::max<std::size_t>(1, min_live_ / 2);
  strong_high_ = capacity_ - min_live_;
  // A key split of > strong_high_ live entries must leave both halves at or
  // above strong_low_, or splits could cascade forever.
  TAR_CHECK(strong_high_ + 1 >= 2 * strong_low_ &&
            strong_high_ > strong_low_);
}

Status Mvbt::LoadForUpdate(PageId id, Node* node) const {
  TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(id));
  node->is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
  std::uint16_t count = page->ReadAt<std::uint16_t>(2);
  node->entries.resize(count);
  std::size_t off = NodeLayout::kHeaderBytes;
  for (std::uint16_t i = 0; i < count; ++i, off += NodeLayout::kEntryBytes) {
    Entry& e = node->entries[i];
    e.key_lo = page->ReadAt<Key>(off);
    e.key_hi = page->ReadAt<Key>(off + 8);
    e.v_start = page->ReadAt<Version>(off + 16);
    e.v_end = page->ReadAt<Version>(off + 24);
    e.value = page->ReadAt<Value>(off + 32);
  }
  return Status::OK();
}

Result<const Page*> Mvbt::FetchForQuery(PageId id, AccessStats* stats) const {
  bool hit = false;
  auto res = pool_->Fetch(owner_, id, &hit);
  if (!res.ok()) return res.status();
  if (stats != nullptr) {
    if (hit) {
      ++stats->tia_buffer_hits;
    } else {
      ++stats->tia_page_reads;
    }
  }
  return res;
}

Entry Mvbt::EntryAt(const Page& page, std::size_t index) {
  std::size_t off =
      NodeLayout::kHeaderBytes + index * NodeLayout::kEntryBytes;
  Entry e;
  e.key_lo = page.ReadAt<Key>(off);
  e.key_hi = page.ReadAt<Key>(off + 8);
  e.v_start = page.ReadAt<Version>(off + 16);
  e.v_end = page.ReadAt<Version>(off + 24);
  e.value = page.ReadAt<Value>(off + 32);
  return e;
}

Status Mvbt::Store(PageId id, const Node& node) {
  if (node.entries.size() > capacity_) {
    return Status::Corruption("MVBT node exceeds block capacity");
  }
  TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(id));
  page->WriteAt<std::uint8_t>(0, node.is_leaf ? 1 : 0);
  page->WriteAt<std::uint16_t>(2, static_cast<std::uint16_t>(
                                      node.entries.size()));
  std::size_t off = NodeLayout::kHeaderBytes;
  for (const Entry& e : node.entries) {
    page->WriteAt<Key>(off, e.key_lo);
    page->WriteAt<Key>(off + 8, e.key_hi);
    page->WriteAt<Version>(off + 16, e.v_start);
    page->WriteAt<Version>(off + 24, e.v_end);
    page->WriteAt<Value>(off + 32, e.value);
    off += NodeLayout::kEntryBytes;
  }
  return Status::OK();
}

PageId Mvbt::AllocateNode(const Node& node, Status* st) {
  Result<PageId> id = file_->Allocate();
  if (!id.ok()) {
    if (st != nullptr) *st = id.status();
    return kInvalidPageId;
  }
  Status s = Store(id.ValueOrDie(), node);
  if (!s.ok() && st != nullptr) *st = s;
  return id.ValueOrDie();
}

std::optional<Mvbt::RootEntry> Mvbt::RootAt(Version v) const {
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (it->v_start <= v && v < it->v_end) return *it;
    if (it->v_end <= v) break;  // roots_ is ordered by version
  }
  return std::nullopt;
}

Status Mvbt::FindLeafPath(Version v, Key key, std::vector<PageId>* path,
                          Node* leaf) const {
  auto root = RootAt(v);
  if (!root.has_value()) return Status::NotFound("empty tree at version");
  PageId page = root->page;
  Node node;
  for (;;) {
    path->push_back(page);
    TAR_RETURN_NOT_OK(LoadForUpdate(page, &node));
    if (node.is_leaf) break;
    PageId next = kInvalidPageId;
    for (const Entry& e : node.entries) {
      if (e.alive() && e.key_lo <= key && key < e.key_hi) {
        next = static_cast<PageId>(e.value);
        break;
      }
    }
    if (next == kInvalidPageId) {
      return Status::Corruption("router gap: no live child covers key");
    }
    page = next;
  }
  *leaf = std::move(node);
  return Status::OK();
}

Status Mvbt::Insert(Version v, Key key, Value value) {
  if (v < last_version_) {
    return Status::InvalidArgument("versions must be non-decreasing");
  }
  if (key == kKeyMax) {
    return Status::InvalidArgument("kKeyMax is reserved as a sentinel");
  }
  last_version_ = v;
  Entry record{key, key, v, kVersionAlive, value};

  if (roots_.empty() || roots_.back().v_end != kVersionAlive) {
    Node root;
    root.is_leaf = true;
    root.entries.push_back(record);
    Status st = Status::OK();
    PageId page = AllocateNode(root, &st);
    TAR_RETURN_NOT_OK(st);
    roots_.push_back(RootEntry{v, kVersionAlive, page, true});
    return Status::OK();
  }

  std::vector<PageId> path;
  Node leaf;
  TAR_RETURN_NOT_OK(FindLeafPath(v, key, &path, &leaf));
  for (const Entry& e : leaf.entries) {
    if (e.alive() && e.key_lo == key) {
      return Status::AlreadyExists("live key already present");
    }
  }
  leaf.entries.push_back(record);
  return Restructure(v, path, path.size() - 1, std::move(leaf));
}

Status Mvbt::Erase(Version v, Key key) {
  if (v < last_version_) {
    return Status::InvalidArgument("versions must be non-decreasing");
  }
  if (roots_.empty() || roots_.back().v_end != kVersionAlive) {
    return Status::NotFound("key not alive");
  }
  last_version_ = v;
  std::vector<PageId> path;
  Node leaf;
  TAR_RETURN_NOT_OK(FindLeafPath(v, key, &path, &leaf));
  bool found = false;
  for (std::size_t i = 0; i < leaf.entries.size(); ++i) {
    Entry& e = leaf.entries[i];
    if (e.alive() && e.key_lo == key) {
      if (e.v_start == v) {
        // Inserted and deleted at the same version: never visible.
        leaf.entries.erase(leaf.entries.begin() + i);
      } else {
        e.v_end = v;
      }
      found = true;
      break;
    }
  }
  if (!found) return Status::NotFound("key not alive");
  return Restructure(v, path, path.size() - 1, std::move(leaf));
}

Status Mvbt::Restructure(Version v, const std::vector<PageId>& path,
                         std::size_t level, Node node) {
  PageId page = path[level];
  bool is_root = (level == 0);
  std::size_t live = node.CountAliveEntries();

  bool overflow = node.entries.size() > capacity_;
  bool weak_underflow = !is_root && live < min_live_;
  // An empty live leaf root may simply persist (empty tree from v on) once
  // its historical entries are stored; the root directory stays as is.
  if (!overflow && !weak_underflow) {
    TAR_RETURN_NOT_OK(Store(page, node));
    if (is_root && !node.is_leaf && live == 1) {
      // Height decrease: the single live child becomes the root from v on.
      for (const Entry& e : node.entries) {
        if (e.alive()) {
          Node child;
          TAR_RETURN_NOT_OK(LoadForUpdate(static_cast<PageId>(e.value),
                                          &child));
          // Close the current root period and open one for the child.
          roots_.back().v_end = v;
          if (roots_.back().v_end == roots_.back().v_start) roots_.pop_back();
          roots_.push_back(RootEntry{v, kVersionAlive,
                                     static_cast<PageId>(e.value),
                                     child.is_leaf});
          break;
        }
      }
    }
    return Status::OK();
  }

  ParentOp op;
  if (!is_root) {
    Node parent;
    TAR_RETURN_NOT_OK(LoadForUpdate(path[level - 1], &parent));
    TAR_RETURN_NOT_OK(VersionSplit(v, page, node, &parent, &op));
    // Apply the op to the parent: kill the replaced children, append the
    // new routers.
    for (PageId dead : op.dead_children) {
      for (std::size_t i = 0; i < parent.entries.size(); ++i) {
        Entry& e = parent.entries[i];
        if (e.alive() && static_cast<PageId>(e.value) == dead) {
          if (e.v_start == v) {
            parent.entries.erase(parent.entries.begin() + i);
          } else {
            e.v_end = v;
          }
          break;
        }
      }
    }
    for (const Entry& e : op.new_entries) parent.entries.push_back(e);
    return Restructure(v, path, level - 1, std::move(parent));
  }

  // Root-level structural change.
  TAR_RETURN_NOT_OK(VersionSplit(v, page, node, nullptr, &op));
  roots_.back().v_end = v;
  if (roots_.back().v_end == roots_.back().v_start) roots_.pop_back();
  if (op.new_entries.size() == 1) {
    roots_.push_back(RootEntry{v, kVersionAlive,
                               static_cast<PageId>(op.new_entries[0].value),
                               node.is_leaf});
  } else {
    Node new_root;
    new_root.is_leaf = false;
    new_root.entries = op.new_entries;
    Status st = Status::OK();
    PageId root_page = AllocateNode(new_root, &st);
    TAR_RETURN_NOT_OK(st);
    roots_.push_back(RootEntry{v, kVersionAlive, root_page, false});
  }
  return Status::OK();
}

Status Mvbt::VersionSplit(Version v, PageId page_id, const Node& node,
                          Node* parent, ParentOp* op) {
  // Partition entries: live ones move/copy into the new node; the
  // historical node keeps everything except entries born at v (which are
  // invisible during its lifetime [.., v)).
  Node copy;
  copy.is_leaf = node.is_leaf;
  Node historical;
  historical.is_leaf = node.is_leaf;
  for (const Entry& e : node.entries) {
    if (e.alive()) copy.entries.push_back(e);
    if (!MovesToCopy(e, v)) historical.entries.push_back(e);
  }
  TAR_RETURN_NOT_OK(Store(page_id, historical));
  op->dead_children.push_back(page_id);

  // Responsibility range of this node, read from the parent's live router
  // (the whole key space for the root).
  Key lo = kKeyMin;
  Key hi = kKeyMax;
  if (parent != nullptr) {
    for (const Entry& e : parent->entries) {
      if (e.alive() && static_cast<PageId>(e.value) == page_id) {
        lo = e.key_lo;
        hi = e.key_hi;
        break;
      }
    }
  }

  // Strong version condition, lower bound: merge with a key-adjacent
  // sibling (version-splitting it as well).
  if (parent != nullptr && copy.entries.size() < strong_low_) {
    const Entry* sibling = nullptr;
    for (const Entry& e : parent->entries) {
      if (!e.alive() || static_cast<PageId>(e.value) == page_id) continue;
      if (e.key_hi == lo || e.key_lo == hi) {
        sibling = &e;
        break;
      }
    }
    if (sibling != nullptr) {
      PageId sib_page = static_cast<PageId>(sibling->value);
      Node sib;
      TAR_RETURN_NOT_OK(LoadForUpdate(sib_page, &sib));
      Node sib_hist;
      sib_hist.is_leaf = sib.is_leaf;
      for (const Entry& e : sib.entries) {
        if (e.alive()) copy.entries.push_back(e);
        if (!MovesToCopy(e, v)) sib_hist.entries.push_back(e);
      }
      TAR_RETURN_NOT_OK(Store(sib_page, sib_hist));
      op->dead_children.push_back(sib_page);
      lo = std::min(lo, sibling->key_lo);
      hi = std::max(hi, sibling->key_hi);
    }
  }

  std::sort(copy.entries.begin(), copy.entries.end(),
            [](const Entry& a, const Entry& b) { return a.key_lo < b.key_lo; });

  // Strong version condition, upper bound: key split.
  if (copy.entries.size() > strong_high_) {
    std::size_t mid = copy.entries.size() / 2;
    // The split key must strictly separate the two halves.
    while (mid < copy.entries.size() &&
           copy.entries[mid].key_lo == copy.entries.front().key_lo) {
      ++mid;
    }
    if (mid == copy.entries.size()) {
      return Status::Corruption("cannot key-split: all keys equal");
    }
    Key split = copy.entries[mid].key_lo;
    Node left;
    left.is_leaf = copy.is_leaf;
    left.entries.assign(copy.entries.begin(), copy.entries.begin() + mid);
    Node right;
    right.is_leaf = copy.is_leaf;
    right.entries.assign(copy.entries.begin() + mid, copy.entries.end());
    Status st = Status::OK();
    PageId left_page = AllocateNode(left, &st);
    TAR_RETURN_NOT_OK(st);
    PageId right_page = AllocateNode(right, &st);
    TAR_RETURN_NOT_OK(st);
    op->new_entries.push_back(
        Entry{lo, split, v, kVersionAlive, static_cast<Value>(left_page)});
    op->new_entries.push_back(
        Entry{split, hi, v, kVersionAlive, static_cast<Value>(right_page)});
    return Status::OK();
  }

  Status st = Status::OK();
  PageId copy_page = AllocateNode(copy, &st);
  TAR_RETURN_NOT_OK(st);
  op->new_entries.push_back(
      Entry{lo, hi, v, kVersionAlive, static_cast<Value>(copy_page)});
  return Status::OK();
}

Result<std::optional<Value>> Mvbt::Lookup(Version v, Key key,
                                          AccessStats* stats) const {
  auto root = RootAt(v);
  if (!root.has_value()) return std::optional<Value>{};
  PageId page_id = root->page;
  for (;;) {
    TAR_ASSIGN_OR_RETURN(const Page* page, FetchForQuery(page_id, stats));
    bool is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
    std::uint16_t count = page->ReadAt<std::uint16_t>(2);
    if (is_leaf) {
      for (std::uint16_t i = 0; i < count; ++i) {
        Entry e = EntryAt(*page, i);
        if (e.AliveAt(v) && e.key_lo == key) {
          return std::optional<Value>{e.value};
        }
      }
      return std::optional<Value>{};
    }
    PageId next = kInvalidPageId;
    for (std::uint16_t i = 0; i < count; ++i) {
      Entry e = EntryAt(*page, i);
      if (e.AliveAt(v) && e.key_lo <= key && key < e.key_hi) {
        next = static_cast<PageId>(e.value);
        break;
      }
    }
    if (next == kInvalidPageId) {
      return Status::Corruption("router gap: no child covers key at version");
    }
    page_id = next;
  }
}

Status Mvbt::RangeScan(Version v, Key lo, Key hi,
                       std::vector<std::pair<Key, Value>>* out,
                       AccessStats* stats) const {
  out->clear();
  TAR_RETURN_NOT_OK(Scan(
      v, lo, hi, [out](Key k, Value val) { out->emplace_back(k, val); },
      stats));
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Result<std::size_t> Mvbt::CountAlive(Version v) const {
  std::size_t n = 0;
  // [kKeyMin, kKeyMax] is closed on both ends, matching Scan's inclusive
  // bounds (kKeyMax - 1 would drop a record at the top key).
  TAR_RETURN_NOT_OK(Scan(v, kKeyMin, kKeyMax, [&n](Key, Value) { ++n; }));
  return n;
}

Status Mvbt::CheckInvariants() const {
  // Check at each version where the root changed, plus the latest version.
  std::vector<Version> versions;
  for (const RootEntry& r : roots_) versions.push_back(r.v_start);
  versions.push_back(last_version_);

  for (Version v : versions) {
    auto root = RootAt(v);
    if (!root.has_value()) continue;
    // Iterative DFS with (page, is_root, lo, hi, depth, path). The path
    // is the page-id chain from the root, reported on corruption so a
    // failure names the broken node.
    struct Item {
      PageId page;
      bool is_root;
      Key lo, hi;
      std::size_t depth;
      std::string path;
    };
    const std::string at_version = "@v" + std::to_string(v);
    std::vector<Item> stack{{root->page, true, kKeyMin, kKeyMax, 0,
                             "root" + at_version + "/page:" +
                                 std::to_string(root->page)}};
    std::optional<std::size_t> leaf_depth;
    while (!stack.empty()) {
      Item item = stack.back();
      stack.pop_back();
      Node node;
      TAR_RETURN_NOT_OK(LoadForUpdate(item.page, &node));
      if (node.entries.size() > capacity_) {
        return Status::Corruption("node over capacity at " + item.path);
      }
      std::size_t live = 0;
      for (const Entry& e : node.entries) live += e.AliveAt(v);
      if (!item.is_root && live < min_live_) {
        return Status::Corruption("weak version condition violated at " +
                                  item.path);
      }
      if (node.is_leaf) {
        if (leaf_depth.has_value() && *leaf_depth != item.depth) {
          return Status::Corruption("leaves at different depths at " +
                                    item.path);
        }
        leaf_depth = item.depth;
        for (const Entry& e : node.entries) {
          if (e.AliveAt(v) &&
              (e.key_lo < item.lo || e.key_lo >= item.hi)) {
            return Status::Corruption("leaf key outside responsibility at " +
                                      item.path);
          }
        }
        continue;
      }
      // Live children must partition [lo, hi).
      std::vector<Entry> kids;
      for (const Entry& e : node.entries) {
        if (e.AliveAt(v)) kids.push_back(e);
      }
      std::sort(kids.begin(), kids.end(), [](const Entry& a, const Entry& b) {
        return a.key_lo < b.key_lo;
      });
      Key cursor = item.lo;
      for (const Entry& e : kids) {
        if (e.key_lo != cursor) {
          return Status::Corruption("router ranges do not partition at " +
                                    item.path);
        }
        cursor = e.key_hi;
        stack.push_back(Item{static_cast<PageId>(e.value), false, e.key_lo,
                             e.key_hi, item.depth + 1,
                             item.path + "/page:" +
                                 std::to_string(e.value)});
      }
      if (live > 0 && cursor != item.hi) {
        return Status::Corruption("router ranges do not cover the range at " +
                                  item.path);
      }
    }
  }
  return Status::OK();
}

}  // namespace tar::mvbt
