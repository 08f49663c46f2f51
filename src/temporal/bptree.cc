#include "temporal/bptree.h"

#include <algorithm>

#include "common/check.h"

namespace tar::bptree {

// Internal nodes use an "exclusive upper bound" representation: slot i is
// (upper_i, child_i) and child i covers keys in [upper_{i-1}, upper_i),
// with upper_{-1} = -inf and the last slot's bound always kKeyMax. Merges
// are then plain concatenations and separators never need recomputing
// from subtree contents.

BpTree::BpTree(PageFile* file, BufferPool* pool, OwnerId owner)
    : file_(file), pool_(pool), owner_(owner),
      capacity_(BpNodeLayout::Capacity(file->page_size())),
      min_fill_(std::max<std::size_t>(1, capacity_ * 2 / 5)) {
  TAR_CHECK(capacity_ >= 4 && "page size too small for a B+-tree node");
}

Status BpTree::Load(PageId id, Node* node) const {
  TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(id));
  node->is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
  std::uint16_t count = page->ReadAt<std::uint16_t>(2);
  node->keys.resize(count);
  node->values.resize(count);
  std::size_t off = BpNodeLayout::kHeaderBytes;
  for (std::uint16_t i = 0; i < count; ++i, off += BpNodeLayout::kSlotBytes) {
    node->keys[i] = page->ReadAt<Key>(off);
    node->values[i] = page->ReadAt<Value>(off + 8);
  }
  return Status::OK();
}

Result<const Page*> BpTree::FetchForQuery(PageId id,
                                          AccessStats* stats) const {
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

Status BpTree::Store(PageId id, const Node& node) {
  if (node.keys.size() > capacity_) {
    return Status::Corruption("B+-tree node exceeds capacity");
  }
  TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(id));
  page->WriteAt<std::uint8_t>(0, node.is_leaf ? 1 : 0);
  page->WriteAt<std::uint16_t>(2,
                               static_cast<std::uint16_t>(node.keys.size()));
  std::size_t off = BpNodeLayout::kHeaderBytes;
  for (std::size_t i = 0; i < node.keys.size(); ++i) {
    page->WriteAt<Key>(off, node.keys[i]);
    page->WriteAt<Value>(off + 8, node.values[i]);
    off += BpNodeLayout::kSlotBytes;
  }
  return Status::OK();
}

PageId BpTree::AllocateNode(const Node& node, Status* st) {
  Result<PageId> id = file_->Allocate();
  if (!id.ok()) {
    if (st != nullptr) *st = id.status();
    return kInvalidPageId;
  }
  Status s = Store(id.ValueOrDie(), node);
  if (!s.ok() && st != nullptr) *st = s;
  return id.ValueOrDie();
}

Status BpTree::Put(Key key, Value value) {
  if (key == kKeyMax) {
    return Status::InvalidArgument("kKeyMax is reserved as a sentinel");
  }
  if (root_ == kInvalidPageId) {
    Node root;
    root.is_leaf = true;
    root.keys = {key};
    root.values = {value};
    Status st = Status::OK();
    root_ = AllocateNode(root, &st);
    TAR_RETURN_NOT_OK(st);
    size_ = 1;
    return Status::OK();
  }
  bool grew = false;
  Key split_key = 0;
  PageId split_page = kInvalidPageId;
  TAR_RETURN_NOT_OK(PutRec(root_, key, value, &grew, &split_key,
                           &split_page));
  if (split_page != kInvalidPageId) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys = {split_key, kKeyMax};
    new_root.values = {static_cast<Value>(split_page),
                       static_cast<Value>(root_)};
    Status st = Status::OK();
    root_ = AllocateNode(new_root, &st);
    TAR_RETURN_NOT_OK(st);
  }
  if (grew) ++size_;
  return Status::OK();
}

Status BpTree::PutRec(PageId page, Key key, Value value, bool* grew,
                      Key* split_key, PageId* split_page) {
  *split_page = kInvalidPageId;
  Node node;
  TAR_RETURN_NOT_OK(Load(page, &node));
  if (node.is_leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    std::size_t idx = it - node.keys.begin();
    if (it != node.keys.end() && *it == key) {
      node.values[idx] = value;  // overwrite
      *grew = false;
    } else {
      node.keys.insert(it, key);
      node.values.insert(node.values.begin() + idx, value);
      *grew = true;
    }
  } else {
    std::size_t idx = std::upper_bound(node.keys.begin(), node.keys.end(),
                                       key) -
                      node.keys.begin();
    // keys.back() == kKeyMax, so idx is always a valid child.
    Key child_split_key = 0;
    PageId child_split = kInvalidPageId;
    TAR_RETURN_NOT_OK(PutRec(static_cast<PageId>(node.values[idx]), key,
                             value, grew, &child_split_key, &child_split));
    if (child_split != kInvalidPageId) {
      node.keys.insert(node.keys.begin() + idx, child_split_key);
      node.values.insert(node.values.begin() + idx,
                         static_cast<Value>(child_split));
    }
  }

  if (node.keys.size() <= capacity_) {
    return Store(page, node);
  }
  // Split: the new node takes the lower half, this page keeps the upper
  // half so the parent's existing (bound, child) slot stays valid.
  std::size_t mid = node.keys.size() / 2;
  Node left;
  left.is_leaf = node.is_leaf;
  left.keys.assign(node.keys.begin(), node.keys.begin() + mid);
  left.values.assign(node.values.begin(), node.values.begin() + mid);
  node.keys.erase(node.keys.begin(), node.keys.begin() + mid);
  node.values.erase(node.values.begin(), node.values.begin() + mid);
  // The left node's exclusive upper bound: for leaves the first key kept
  // here; for internal nodes the bound of the left node's last slot
  // (already stored inside it).
  *split_key = node.is_leaf ? node.keys.front() : left.keys.back();
  Status st = Status::OK();
  *split_page = AllocateNode(left, &st);
  TAR_RETURN_NOT_OK(st);
  return Store(page, node);
}

Status BpTree::Erase(Key key) {
  if (root_ == kInvalidPageId) return Status::NotFound("empty tree");
  bool underflow = false;
  Status st = EraseRec(root_, key, &underflow);
  TAR_RETURN_NOT_OK(st);
  --size_;
  // Shrink the root.
  Node root;
  TAR_RETURN_NOT_OK(Load(root_, &root));
  if (!root.is_leaf && root.keys.size() == 1) {
    root_ = static_cast<PageId>(root.values[0]);
  } else if (root.is_leaf && root.keys.empty()) {
    root_ = kInvalidPageId;
  }
  return Status::OK();
}

Status BpTree::EraseRec(PageId page, Key key, bool* underflow) {
  Node node;
  TAR_RETURN_NOT_OK(Load(page, &node));
  if (node.is_leaf) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it == node.keys.end() || *it != key) {
      return Status::NotFound("key not present");
    }
    std::size_t idx = it - node.keys.begin();
    node.keys.erase(it);
    node.values.erase(node.values.begin() + idx);
    *underflow = node.keys.size() < min_fill_;
    return Store(page, node);
  }

  std::size_t idx =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  bool child_underflow = false;
  TAR_RETURN_NOT_OK(EraseRec(static_cast<PageId>(node.values[idx]), key,
                             &child_underflow));
  if (child_underflow) {
    // Rebalance with an adjacent sibling: borrow when it has spare slots,
    // merge otherwise.
    std::size_t sib = idx > 0 ? idx - 1 : idx + 1;
    Node child, sibling;
    TAR_RETURN_NOT_OK(Load(static_cast<PageId>(node.values[idx]), &child));
    TAR_RETURN_NOT_OK(Load(static_cast<PageId>(node.values[sib]), &sibling));
    if (sibling.keys.size() > min_fill_) {
      if (sib < idx) {
        // Move the sibling's last slot to the child's front. The parent
        // separator becomes the moved slot's lower bound: for leaves the
        // moved key itself, for internal nodes the sibling's new bound.
        child.keys.insert(child.keys.begin(), sibling.keys.back());
        child.values.insert(child.values.begin(), sibling.values.back());
        sibling.keys.pop_back();
        sibling.values.pop_back();
        // New separator: for leaves the moved key; for internal nodes the
        // sibling's new last bound (the moved slot keeps its own bound
        // inside the child).
        node.keys[sib] =
            child.is_leaf ? child.keys.front() : sibling.keys.back();
      } else {
        // Move the right sibling's first slot to the child's back.
        child.keys.push_back(sibling.keys.front());
        child.values.push_back(sibling.values.front());
        sibling.keys.erase(sibling.keys.begin());
        sibling.values.erase(sibling.values.begin());
        node.keys[idx] =
            child.is_leaf ? sibling.keys.front() : child.keys.back();
      }
      TAR_RETURN_NOT_OK(Store(static_cast<PageId>(node.values[idx]), child));
      TAR_RETURN_NOT_OK(
          Store(static_cast<PageId>(node.values[sib]), sibling));
    } else {
      // Merge child and sibling into the right-hand page (whose parent
      // slot keeps the correct upper bound); drop the left-hand slot.
      std::size_t left = std::min(idx, sib);
      std::size_t right = std::max(idx, sib);
      Node lnode, rnode;
      TAR_RETURN_NOT_OK(Load(static_cast<PageId>(node.values[left]),
                             &lnode));
      TAR_RETURN_NOT_OK(Load(static_cast<PageId>(node.values[right]),
                             &rnode));
      lnode.keys.insert(lnode.keys.end(), rnode.keys.begin(),
                        rnode.keys.end());
      lnode.values.insert(lnode.values.end(), rnode.values.begin(),
                          rnode.values.end());
      // For internal merges the left node's old last bound (== the parent
      // separator) is already correct inside the merged node.
      TAR_RETURN_NOT_OK(
          Store(static_cast<PageId>(node.values[right]), lnode));
      node.keys.erase(node.keys.begin() + left);
      node.values.erase(node.values.begin() + left);
    }
  }
  *underflow = node.keys.size() < min_fill_;
  return Store(page, node);
}

Result<std::optional<Value>> BpTree::Get(Key key, AccessStats* stats) const {
  if (root_ == kInvalidPageId) return std::optional<Value>{};
  PageId page_id = root_;
  for (;;) {
    TAR_ASSIGN_OR_RETURN(const Page* page, FetchForQuery(page_id, stats));
    bool is_leaf = page->ReadAt<std::uint8_t>(0) != 0;
    std::uint16_t count = page->ReadAt<std::uint16_t>(2);
    if (is_leaf) {
      for (std::uint16_t i = 0; i < count; ++i) {
        std::size_t off =
            BpNodeLayout::kHeaderBytes + i * BpNodeLayout::kSlotBytes;
        Key k = page->ReadAt<Key>(off);
        if (k == key) return std::optional<Value>{page->ReadAt<Value>(off + 8)};
        if (k > key) break;
      }
      return std::optional<Value>{};
    }
    PageId next = kInvalidPageId;
    for (std::uint16_t i = 0; i < count; ++i) {
      std::size_t off =
          BpNodeLayout::kHeaderBytes + i * BpNodeLayout::kSlotBytes;
      if (key < page->ReadAt<Key>(off)) {
        next = static_cast<PageId>(page->ReadAt<Value>(off + 8));
        break;
      }
    }
    if (next == kInvalidPageId) {
      return Status::Corruption("B+-tree router gap");
    }
    page_id = next;
  }
}

Status BpTree::RangeScan(Key lo, Key hi,
                         std::vector<std::pair<Key, Value>>* out,
                         AccessStats* stats) const {
  out->clear();
  return Scan(
      lo, hi, [out](Key k, Value v) { out->emplace_back(k, v); }, stats);
}

Result<std::int64_t> BpTree::RangeSum(Key lo, Key hi,
                                      AccessStats* stats) const {
  std::int64_t sum = 0;
  TAR_RETURN_NOT_OK(Scan(lo, hi, [&sum](Key, Value v) { sum += v; }, stats));
  return sum;
}

Status BpTree::CheckRec(PageId page_id, Key lo, Key hi, std::size_t depth,
                        std::size_t* leaf_depth,
                        const std::string& path) const {
  Node node;
  TAR_RETURN_NOT_OK(Load(page_id, &node));
  if (node.keys.size() > capacity_) {
    return Status::Corruption("node over capacity at " + path);
  }
  if (page_id != root_ && node.keys.size() < min_fill_) {
    return Status::Corruption("node under minimum fill at " + path);
  }
  if (node.is_leaf) {
    if (*leaf_depth == SIZE_MAX) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths at " + path);
    }
    for (std::size_t i = 0; i < node.keys.size(); ++i) {
      if (node.keys[i] < lo || node.keys[i] >= hi) {
        return Status::Corruption("leaf key outside responsibility at " +
                                  path);
      }
      if (i > 0 && node.keys[i - 1] >= node.keys[i]) {
        return Status::Corruption("leaf keys out of order at " + path);
      }
    }
    return Status::OK();
  }
  if (node.keys.back() != hi) {
    return Status::Corruption("last child bound != node bound at " + path);
  }
  Key lower = lo;
  for (std::size_t i = 0; i < node.keys.size(); ++i) {
    Key upper = node.keys[i];
    if (upper <= lower) {
      return Status::Corruption("empty or inverted child range at " + path);
    }
    TAR_RETURN_NOT_OK(CheckRec(static_cast<PageId>(node.values[i]), lower,
                               upper, depth + 1, leaf_depth,
                               path + "/page:" +
                                   std::to_string(node.values[i])));
    lower = upper;
  }
  return Status::OK();
}

Status BpTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK()
                      : Status::Corruption("empty tree but nonzero size");
  }
  std::size_t leaf_depth = SIZE_MAX;
  return CheckRec(root_, kKeyMin, kKeyMax, 0, &leaf_depth,
                  "root/page:" + std::to_string(root_));
}

}  // namespace tar::bptree
