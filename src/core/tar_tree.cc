#include "core/tar_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <thread>

#include "common/check.h"

namespace tar {

/// RAII enforcement of the single-writer contract (debug builds): the
/// constructor CASes the hashed thread id into writer_tid_ and trips a
/// TAR_DCHECK when another thread already holds it. Reentry by the same
/// thread is fine (public mutations never overlap on one thread except
/// by design, e.g. guarded helpers called from guarded mutations).
class TarTree::SingleWriterGuard {
#ifndef NDEBUG
 public:
  explicit SingleWriterGuard(TarTree* tree) : tree_(tree) {
    const std::uint64_t self =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1u;
    std::uint64_t expected = 0;
    if (tree_->writer_tid_.compare_exchange_strong(
            expected, self, std::memory_order_acq_rel)) {
      owned_ = true;
    } else {
      const bool single_writer_contract_held = expected == self;
      TAR_DCHECK(single_writer_contract_held);
    }
  }

  ~SingleWriterGuard() {
    if (owned_) tree_->writer_tid_.store(0, std::memory_order_release);
  }

 private:
  TarTree* tree_;
  bool owned_ = false;
#else
 public:
  explicit SingleWriterGuard(TarTree*) {}
#endif
};

namespace {

constexpr std::size_t kNodeHeaderBytes = 16;
constexpr std::size_t kBytesPerCoord = 4;   // float coordinates
constexpr std::size_t kBytesPerPointer = 4;

bool SpatiallyContains(const Box3& box, const Vec2& p) {
  return box.lo[0] <= p.x && p.x <= box.hi[0] && box.lo[1] <= p.y &&
         p.y <= box.hi[1];
}

}  // namespace

std::size_t TarTreeOptions::NodeCapacity() const {
  std::size_t entry_bytes = 2 * GroupingDims() * kBytesPerCoord +
                            kBytesPerPointer;
  std::size_t cap = (node_size_bytes - kNodeHeaderBytes) / entry_bytes;
  return std::max<std::size_t>(cap, 4);
}

TarTree::TarTree(const TarTreeOptions& options)
    : options_(options),
      capacity_(options.NodeCapacity()),
      min_fill_(std::max<std::size_t>(2, capacity_ * 2 / 5)),
      reinsert_count_(std::max<std::size_t>(1, capacity_ * 3 / 10)),
      file_(options.tia_page_size),
      pool_(&file_, options.tia_buffer_slots) {
  global_tia_ = NewTia();
}

TarTree::NodeId TarTree::NewNode(std::int32_t level) {
  auto node = std::make_unique<Node>();
  node->id = static_cast<NodeId>(nodes_.size());
  node->level = level;
  nodes_.push_back(std::move(node));
  ++num_live_nodes_;
  return nodes_.back()->id;
}

std::unique_ptr<Tia> TarTree::NewTia() {
  return std::make_unique<Tia>(&file_, &pool_, next_owner_++,
                               options_.tia_backend);
}

double TarTree::ZOf(std::int64_t total) const {
  if (max_total_ <= 0) return 1.0;
  double lambda = static_cast<double>(total);
  double lambda_max = static_cast<double>(max_total_);
  return 1.0 - std::min(1.0, lambda / lambda_max);
}

std::size_t TarTree::height() const {
  if (root_ == kInvalidNodeId) return 0;
  return static_cast<std::size_t>(nodes_[root_]->level) + 1;
}

Box3 TarTree::NodeBox(const Node& node) const {
  Box3 box;
  for (const Entry& e : node.entries) box.Extend(e.box);
  return box;
}

Status TarTree::NodeDistribution(const Node& node,
                                 std::vector<TiaRecord>* out) const {
  // Per-epoch max over the member entries, keyed by epoch start.
  std::map<Timestamp, TiaRecord> merged;
  std::vector<TiaRecord> records;
  for (const Entry& e : node.entries) {
    TAR_RETURN_NOT_OK(e.tia->Records(&records));
    for (const TiaRecord& r : records) {
      auto [it, inserted] = merged.emplace(r.extent.start, r);
      if (!inserted && r.aggregate > it->second.aggregate) {
        it->second = r;
      }
    }
  }
  out->clear();
  out->reserve(merged.size());
  for (auto& [ts, rec] : merged) out->push_back(rec);
  return Status::OK();
}

Status TarTree::RaiseTia(Tia* tia, const std::vector<TiaRecord>& records)
    const {
  for (const TiaRecord& r : records) {
    TAR_RETURN_NOT_OK(tia->RaiseTo(r.extent, r.aggregate));
  }
  return Status::OK();
}

std::vector<std::int32_t> TarTree::RecordsToDistvec(
    const std::vector<TiaRecord>& records) const {
  std::vector<std::int32_t> out;
  for (const TiaRecord& r : records) {
    std::int64_t e = options_.grid.EpochOf(r.extent.start);
    if ((std::int64_t)out.size() <= e) out.resize(e + 1, 0);
    out[e] = std::max<std::int64_t>(out[e], r.aggregate);
  }
  return out;
}

Status TarTree::RefreshParentEntry(Entry* parent_entry, const Node& child) {
  parent_entry->box = NodeBox(child);
  std::vector<TiaRecord> dist;
  TAR_RETURN_NOT_OK(NodeDistribution(child, &dist));
  parent_entry->tia = NewTia();
  for (const TiaRecord& r : dist) {
    TAR_RETURN_NOT_OK(parent_entry->tia->Append(r.extent, r.aggregate));
  }
  if (options_.strategy == GroupingStrategy::kAggregate) {
    parent_entry->distvec = RecordsToDistvec(dist);
  }
  return Status::OK();
}

Status TarTree::AugmentParentEntry(Entry* parent_entry,
                                   const InsertionInfo& info) {
  parent_entry->box.Extend(info.box);
  TAR_RETURN_NOT_OK(RaiseTia(parent_entry->tia.get(), info.records));
  if (options_.strategy == GroupingStrategy::kAggregate &&
      info.distvec != nullptr) {
    auto& dv = parent_entry->distvec;
    if (dv.size() < info.distvec->size()) dv.resize(info.distvec->size(), 0);
    for (std::size_t i = 0; i < info.distvec->size(); ++i) {
      dv[i] = std::max(dv[i], (*info.distvec)[i]);
    }
  }
  return Status::OK();
}

Status TarTree::CheckMutable() const {
  if (poisoned_) return PoisonedError("mutation");
  return Status::OK();
}

void TarTree::Poison(const Status& cause) {
  if (poisoned_ || cause.ok()) return;
  poisoned_ = true;
  poison_ = cause;
}

Status TarTree::PoisonedError(const char* refused) const {
  return poison_.WithContext(std::string(refused) +
                             " refused: tree poisoned by an earlier "
                             "partially applied mutation");
}

Status TarTree::PrevalidateInsert(
    const Poi& poi, const std::vector<std::int32_t>& history) const {
  if (poi_info_.count(poi.id) != 0) {
    return Status::AlreadyExists("POI already indexed");
  }
  for (std::size_t e = 0; e < history.size(); ++e) {
    if (history[e] <= 0) continue;
    TAR_RETURN_NOT_OK(
        Tia::CheckPackable(options_.grid.EpochExtent(e), history[e]));
  }
  return Status::OK();
}

Status TarTree::PrevalidateEpoch(
    std::int64_t epoch,
    const std::unordered_map<PoiId, std::int64_t>& aggs) const {
  if (epoch < 0) {
    return Status::InvalidArgument("negative epoch index");
  }
  TimeInterval extent = options_.grid.EpochExtent(epoch);
  for (const auto& [poi, agg] : aggs) {
    if (agg <= 0) continue;
    if (poi_info_.find(poi) == poi_info_.end()) {
      return Status::InvalidArgument("epoch batch contains unknown POI");
    }
    TAR_RETURN_NOT_OK(Tia::CheckPackable(extent, agg));
  }
  return Status::OK();
}

Status TarTree::PrevalidateRecord(const WalRecord& record) const {
  if (poisoned_) return PoisonedError("prevalidate");
  switch (record.type) {
    case WalRecord::Type::kCheckpoint:
      return Status::OK();
    case WalRecord::Type::kInsertPoi:
      return PrevalidateInsert(Poi{record.poi, Vec2{record.x, record.y}},
                               record.history);
    case WalRecord::Type::kAppendEpoch: {
      std::unordered_map<PoiId, std::int64_t> aggs;
      aggs.reserve(record.aggs.size());
      for (const auto& [poi, agg] : record.aggs) aggs[poi] = agg;
      return PrevalidateEpoch(record.epoch, aggs);
    }
  }
  return Status::InvalidArgument("unknown WAL record type");
}

Status TarTree::InsertPoi(const Poi& poi,
                          const std::vector<std::int32_t>& history) {
  SingleWriterGuard guard(this);
  TAR_RETURN_NOT_OK(CheckMutable());
  TAR_RETURN_NOT_OK(PrevalidateInsert(poi, history));
  Status st = InsertPoiUnlogged(poi, history);
  if (!st.ok()) Poison(st);
  return st;
}

Status TarTree::InsertPoiUnlogged(const Poi& poi,
                                  const std::vector<std::int32_t>& history) {
  if (poi_info_.count(poi.id) != 0) {
    return Status::AlreadyExists("POI already indexed");
  }
  std::int64_t total = 0;
  for (std::int32_t c : history) total += c;
  max_total_ = std::max(max_total_, total);
  poi_info_[poi.id] = PoiInfo{poi.pos, total};
  ++num_pois_;

  Entry entry;
  entry.poi = poi.id;
  entry.box = PointBox(poi.pos, ZOf(total));
  entry.tia = NewTia();
  for (std::size_t e = 0; e < history.size(); ++e) {
    if (history[e] <= 0) continue;
    TimeInterval extent = options_.grid.EpochExtent(e);
    TAR_RETURN_NOT_OK(entry.tia->Append(extent, history[e]));
    TAR_RETURN_NOT_OK(global_tia_->RaiseTo(extent, history[e]));
  }
  if (options_.strategy == GroupingStrategy::kAggregate) {
    entry.distvec = history;
  }
  return InsertEntry(std::move(entry), /*level=*/0);
}

Status TarTree::InsertEntry(Entry entry, std::int32_t level) {
  TAR_DCHECK(entry.tia != nullptr);
  std::vector<PendingInsert> pending;
  pending.push_back(PendingInsert{std::move(entry), level});
  std::vector<bool> reinsert_done(64, false);

  while (!pending.empty()) {
    // Highest levels first so a reinserted subtree exists before the
    // entries below it arrive.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      if (pending[i].level > pending[pick].level) pick = i;
    }
    TAR_DCHECK(pending[pick].level >= 0 && pending[pick].level < 64);
    std::swap(pending[pick], pending.back());
    PendingInsert item = std::move(pending.back());
    pending.pop_back();

    if (root_ == kInvalidNodeId) {
      if (item.level == 0 && item.entry.is_leaf_entry()) {
        root_ = NewNode(0);
        MutableNode(root_)->entries.push_back(std::move(item.entry));
      } else if (item.entry.child != kInvalidNodeId) {
        // The reinserted subtree simply becomes the tree.
        root_ = item.entry.child;
      } else {
        return Status::Corruption("cannot root a malformed pending entry");
      }
      continue;
    }
    if (item.level > nodes_[root_]->level) {
      return Status::Corruption("pending entry above the root level");
    }

    InsertionInfo info;
    info.box = item.entry.box;
    TAR_RETURN_NOT_OK(item.entry.tia->Records(&info.records));
    info.distvec = &item.entry.distvec;

    std::unique_ptr<Entry> split;
    TAR_RETURN_NOT_OK(InsertRec(root_, std::move(item.entry), item.level,
                                info, &reinsert_done, &pending, &split));
    if (split != nullptr) {
      NodeId old_root = root_;
      NodeId new_root = NewNode(nodes_[old_root]->level + 1);
      Entry down;
      down.child = old_root;
      TAR_RETURN_NOT_OK(RefreshParentEntry(&down, *nodes_[old_root]));
      MutableNode(new_root)->entries.push_back(std::move(down));
      MutableNode(new_root)->entries.push_back(std::move(*split));
      root_ = new_root;
    }
  }
  return Status::OK();
}

Status TarTree::InsertRec(NodeId node_id, Entry entry, std::int32_t level,
                          const InsertionInfo& info,
                          std::vector<bool>* reinsert_done,
                          std::vector<PendingInsert>* pending,
                          std::unique_ptr<Entry>* split_out) {
  Node* node = MutableNode(node_id);
  if (node->level == level) {
    node->entries.push_back(std::move(entry));
  } else {
    std::size_t idx =
        options_.strategy == GroupingStrategy::kAggregate
            ? ChooseSubtreeByDistribution(*node, *info.distvec)
            : ChooseSubtree(*node, info.box);
    NodeId child = node->entries[idx].child;
    std::unique_ptr<Entry> child_split;
    TAR_RETURN_NOT_OK(InsertRec(child, std::move(entry), level, info,
                                reinsert_done, pending, &child_split));
    if (child_split != nullptr) {
      // The child's membership changed wholesale; rebuild its router.
      TAR_RETURN_NOT_OK(RefreshParentEntry(&node->entries[idx],
                                           *nodes_[child]));
      node->entries.push_back(std::move(*child_split));
    } else {
      TAR_RETURN_NOT_OK(AugmentParentEntry(&node->entries[idx], info));
    }
  }

  if (node->entries.size() <= capacity_) return Status::OK();

  // Overflow treatment (R*): forced reinsert once per level per top-level
  // operation (not at the root, not for the distribution strategy), split
  // otherwise.
  bool can_reinsert = node_id != root_ &&
                      options_.strategy != GroupingStrategy::kAggregate &&
                      node->level < (std::int32_t)reinsert_done->size() &&
                      !(*reinsert_done)[node->level];
  if (can_reinsert) {
    (*reinsert_done)[node->level] = true;
    const std::size_t dims = options_.GroupingDims();
    Box3 box = NodeBox(*node);
    std::vector<std::size_t> order(node->entries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto center_dist = [&](std::size_t i) {
      double d2 = 0.0;
      for (std::size_t dim = 0; dim < dims; ++dim) {
        double d = node->entries[i].box.Center(dim) - box.Center(dim);
        d2 += d * d;
      }
      return d2;
    };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return center_dist(a) > center_dist(b);
    });
    // Remove the `reinsert_count_` entries farthest from the node center.
    std::vector<std::size_t> to_remove(order.begin(),
                                       order.begin() + reinsert_count_);
    std::sort(to_remove.begin(), to_remove.end(), std::greater<>());
    for (std::size_t i : to_remove) {
      pending->push_back(
          PendingInsert{std::move(node->entries[i]), node->level});
      node->entries.erase(node->entries.begin() + i);
    }
    return Status::OK();
  }

  std::vector<Entry> all = std::move(node->entries);
  std::vector<Entry> left;
  std::vector<Entry> right;
  SplitEntries(std::move(all), &left, &right);
  node->entries = std::move(left);
  NodeId sibling = NewNode(node->level);
  MutableNode(sibling)->entries = std::move(right);
  auto up = std::make_unique<Entry>();
  up->child = sibling;
  TAR_RETURN_NOT_OK(RefreshParentEntry(up.get(), *nodes_[sibling]));
  *split_out = std::move(up);
  return Status::OK();
}

bool TarTree::FindLeaf(NodeId node_id, PoiId poi, const Vec2& pos,
                       std::vector<NodeId>* path) const {
  const Node& node = *nodes_[node_id];
  path->push_back(node_id);
  if (node.is_leaf()) {
    for (const Entry& e : node.entries) {
      if (e.poi == poi) return true;
    }
  } else {
    for (const Entry& e : node.entries) {
      if (SpatiallyContains(e.box, pos) &&
          FindLeaf(e.child, poi, pos, path)) {
        return true;
      }
    }
  }
  path->pop_back();
  return false;
}

Status TarTree::DeletePoi(PoiId poi) {
  SingleWriterGuard guard(this);
  TAR_RETURN_NOT_OK(CheckMutable());
  auto it = poi_info_.find(poi);
  if (it == poi_info_.end()) return Status::NotFound("POI not indexed");
  std::vector<NodeId> path;
  if (root_ == kInvalidNodeId ||
      !FindLeaf(root_, poi, it->second.pos, &path)) {
    return Status::Corruption("indexed POI missing from the tree");
  }
  Status st = DeleteFound(poi, it, path);
  if (!st.ok()) Poison(st);
  return st;
}

Status TarTree::DeleteFound(PoiId poi,
                            std::unordered_map<PoiId, PoiInfo>::iterator it,
                            const std::vector<NodeId>& path) {
  Node* leaf = MutableNode(path.back());
  for (std::size_t i = 0; i < leaf->entries.size(); ++i) {
    if (leaf->entries[i].poi == poi) {
      leaf->entries.erase(leaf->entries.begin() + i);
      break;
    }
  }
  poi_info_.erase(it);
  --num_pois_;

  // Condense: drop underfull nodes bottom-up and queue their entries.
  std::vector<PendingInsert> orphans;
  for (std::size_t depth = path.size(); depth-- > 1;) {
    Node* n = MutableNode(path[depth]);
    Node* parent = MutableNode(path[depth - 1]);
    std::size_t idx = 0;
    while (idx < parent->entries.size() &&
           parent->entries[idx].child != n->id) {
      ++idx;
    }
    if (n->entries.size() < min_fill_) {
      for (Entry& e : n->entries) {
        orphans.push_back(PendingInsert{std::move(e), n->level});
      }
      parent->entries.erase(parent->entries.begin() + idx);
      nodes_[path[depth]].reset();
      --num_live_nodes_;
    } else {
      TAR_RETURN_NOT_OK(RefreshParentEntry(&parent->entries[idx], *n));
    }
  }

  // Shrink the root.
  while (root_ != kInvalidNodeId) {
    Node* r = MutableNode(root_);
    if (!r->is_leaf() && r->entries.size() == 1) {
      NodeId child = r->entries[0].child;
      nodes_[root_].reset();
      --num_live_nodes_;
      root_ = child;
    } else if (r->entries.empty()) {
      nodes_[root_].reset();
      --num_live_nodes_;
      root_ = kInvalidNodeId;
    } else {
      break;
    }
  }

  for (PendingInsert& orphan : orphans) {
    TAR_RETURN_NOT_OK(
        InsertEntry(std::move(orphan.entry), orphan.level));
  }
  return Status::OK();
}

Status TarTree::AppendEpoch(
    std::int64_t epoch, const std::unordered_map<PoiId, std::int64_t>& aggs) {
  SingleWriterGuard guard(this);
  TAR_RETURN_NOT_OK(CheckMutable());
  // Validating before any mutation also fixes a partial-mutation leak: the
  // unlogged body used to bump per-POI totals before discovering an
  // unknown POI later in the same batch.
  TAR_RETURN_NOT_OK(PrevalidateEpoch(epoch, aggs));
  Status st = AppendEpochUnlogged(epoch, aggs);
  if (!st.ok()) Poison(st);
  return st;
}

Status TarTree::AppendEpochUnlogged(
    std::int64_t epoch, const std::unordered_map<PoiId, std::int64_t>& aggs) {
  TimeInterval extent = options_.grid.EpochExtent(epoch);
  std::int64_t global_max = 0;
  for (const auto& [poi, agg] : aggs) {
    if (agg <= 0) continue;
    auto it = poi_info_.find(poi);
    if (it == poi_info_.end()) {
      return Status::InvalidArgument("epoch batch contains unknown POI");
    }
    it->second.total += agg;
    max_total_ = std::max(max_total_, it->second.total);
    global_max = std::max(global_max, agg);
  }
  if (global_max > 0) {
    TAR_RETURN_NOT_OK(global_tia_->RaiseTo(extent, global_max));
  }
  if (root_ == kInvalidNodeId) return Status::OK();

  // Recursive digestion (Section 4.2): returns the max aggregate of the
  // node's entries in this epoch, appending TIA records on the way up and
  // refreshing the z-intervals of the touched boxes.
  std::function<Status(NodeId, std::int64_t*)> digest =
      [&](NodeId node_id, std::int64_t* node_max) -> Status {
    Node* node = MutableNode(node_id);
    *node_max = 0;
    for (Entry& e : node->entries) {
      if (node->is_leaf()) {
        auto it = aggs.find(e.poi);
        if (it == aggs.end() || it->second <= 0) continue;
        TAR_RETURN_NOT_OK(e.tia->Append(extent, it->second));
        if (options_.strategy == GroupingStrategy::kAggregate) {
          if ((std::int64_t)e.distvec.size() <= epoch) {
            e.distvec.resize(epoch + 1, 0);
          }
          e.distvec[epoch] = static_cast<std::int32_t>(it->second);
        }
        double z = ZOf(poi_info_.at(e.poi).total);
        e.box.lo[2] = e.box.hi[2] = z;
        *node_max = std::max(*node_max, it->second);
      } else {
        std::int64_t child_max = 0;
        TAR_RETURN_NOT_OK(digest(e.child, &child_max));
        if (child_max > 0) {
          // RaiseTo, not Append: a POI inserted earlier in this epoch may
          // already have pushed a record for it into this entry's TIA.
          TAR_RETURN_NOT_OK(e.tia->RaiseTo(extent, child_max));
          if (options_.strategy == GroupingStrategy::kAggregate) {
            if ((std::int64_t)e.distvec.size() <= epoch) {
              e.distvec.resize(epoch + 1, 0);
            }
            e.distvec[epoch] = std::max(
                e.distvec[epoch], static_cast<std::int32_t>(child_max));
          }
          // Refresh the z-interval from the (already updated) child boxes.
          const Node& child = *nodes_[e.child];
          double zlo = 1.0;
          double zhi = 0.0;
          for (const Entry& ce : child.entries) {
            zlo = std::min(zlo, ce.box.lo[2]);
            zhi = std::max(zhi, ce.box.hi[2]);
          }
          e.box.lo[2] = std::min(e.box.lo[2], zlo);
          e.box.hi[2] = std::max(e.box.hi[2], zhi);
          *node_max = std::max(*node_max, child_max);
        }
      }
    }
    return Status::OK();
  };
  std::int64_t unused = 0;
  return digest(root_, &unused);
}

Status TarTree::ApplyWalRecord(const WalRecord& record, bool* applied) {
  if (applied != nullptr) *applied = false;
  SingleWriterGuard guard(this);
  TAR_RETURN_NOT_OK(CheckMutable());
  if (record.lsn == 0) {
    return Status::InvalidArgument("WAL record carries no LSN");
  }
  if (record.lsn <= applied_lsn_) {
    return Status::OK();  // already applied; replay is idempotent by LSN
  }
  Status st;
  switch (record.type) {
    case WalRecord::Type::kCheckpoint:
      // A marker, not a mutation. It does not advance applied_lsn_ either:
      // the LSN it certifies as durable is record.durable_lsn, and the
      // snapshot this tree came from already encodes what was applied.
      return Status::OK();
    case WalRecord::Type::kInsertPoi:
      st = InsertPoiUnlogged(Poi{record.poi, Vec2{record.x, record.y}},
                             record.history);
      break;
    case WalRecord::Type::kAppendEpoch: {
      std::unordered_map<PoiId, std::int64_t> aggs;
      aggs.reserve(record.aggs.size());
      for (const auto& [poi, agg] : record.aggs) aggs[poi] = agg;
      st = AppendEpochUnlogged(record.epoch, aggs);
      break;
    }
  }
  if (!st.ok()) {
    Poison(st);
    return st.WithContext(std::string("applying WAL ") +
                          ToString(record.type) + " record at lsn " +
                          std::to_string(record.lsn));
  }
  applied_lsn_ = record.lsn;
  if (applied != nullptr) *applied = true;
  return Status::OK();
}

Status TarTree::Rebuild() {
  SingleWriterGuard guard(this);
  TAR_RETURN_NOT_OK(CheckMutable());
  struct Item {
    Poi poi;
    std::vector<std::int32_t> history;
  };
  std::vector<Item> items;
  items.reserve(num_pois_);
  std::vector<TiaRecord> records;
  std::function<Status(NodeId)> collect = [&](NodeId node_id) -> Status {
    const Node& node = *nodes_[node_id];
    for (const Entry& e : node.entries) {
      if (node.is_leaf()) {
        TAR_RETURN_NOT_OK(e.tia->Records(&records));
        items.push_back(
            Item{Poi{e.poi, poi_info_.at(e.poi).pos},
                 RecordsToDistvec(records)});
      } else {
        TAR_RETURN_NOT_OK(collect(e.child));
      }
    }
    return Status::OK();
  };
  if (root_ != kInvalidNodeId) TAR_RETURN_NOT_OK(collect(root_));

  nodes_.clear();
  root_ = kInvalidNodeId;
  num_live_nodes_ = 0;
  num_pois_ = 0;
  poi_info_.clear();
  pool_.Clear();
  global_tia_ = NewTia();
  // max_total_ is kept: the z normalization reflects everything seen.
  // Unlogged on purpose: a rebuild is content-neutral, so the WAL (and
  // applied_lsn_) must not move.
  for (const Item& item : items) {
    Status st = InsertPoiUnlogged(item.poi, item.history);
    if (!st.ok()) {
      Poison(st);
      return st;
    }
  }
  return Status::OK();
}

Status TarTree::CheckNodeInvariants(NodeId id, const Entry* parent_entry,
                                    std::size_t* leaf_depth,
                                    std::size_t depth,
                                    std::size_t* poi_count) const {
  const Node& node = *nodes_[id];
  if (node.entries.size() > capacity_) {
    return Status::Corruption("node over capacity");
  }
  if (id != root_ && node.entries.size() < min_fill_) {
    return Status::Corruption("node under the minimum fill");
  }
  if (parent_entry != nullptr) {
    if (!parent_entry->box.Contains(NodeBox(node))) {
      return Status::Corruption("parent box does not contain child boxes");
    }
    // The parent TIA must dominate the child's per-epoch max.
    std::vector<TiaRecord> child_dist;
    TAR_RETURN_NOT_OK(NodeDistribution(node, &child_dist));
    for (const TiaRecord& r : child_dist) {
      auto agg = parent_entry->tia->Aggregate(r.extent);
      if (!agg.ok()) return agg.status();
      if (agg.ValueOrDie() < r.aggregate) {
        return Status::Corruption("parent TIA below child per-epoch max");
      }
    }
  }
  if (node.is_leaf()) {
    if (*leaf_depth == SIZE_MAX) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    for (const Entry& e : node.entries) {
      if (!e.is_leaf_entry() || e.tia == nullptr) {
        return Status::Corruption("malformed leaf entry");
      }
      if (poi_info_.count(e.poi) == 0) {
        return Status::Corruption("leaf entry for unknown POI");
      }
      ++*poi_count;
    }
    return Status::OK();
  }
  for (const Entry& e : node.entries) {
    if (e.is_leaf_entry() || e.child == kInvalidNodeId ||
        e.tia == nullptr) {
      return Status::Corruption("malformed internal entry");
    }
    if (nodes_[e.child] == nullptr) {
      return Status::Corruption("internal entry points at a dead node");
    }
    if (nodes_[e.child]->level != node.level - 1) {
      return Status::Corruption("child level mismatch");
    }
    TAR_RETURN_NOT_OK(
        CheckNodeInvariants(e.child, &e, leaf_depth, depth + 1, poi_count));
  }
  return Status::OK();
}

Status TarTree::CheckInvariants() const {
  if (root_ == kInvalidNodeId) {
    return num_pois_ == 0
               ? Status::OK()
               : Status::Corruption("empty tree but POIs registered");
  }
  std::size_t leaf_depth = SIZE_MAX;
  std::size_t poi_count = 0;
  TAR_RETURN_NOT_OK(
      CheckNodeInvariants(root_, nullptr, &leaf_depth, 0, &poi_count));
  if (poi_count != num_pois_) {
    return Status::Corruption("leaf entry count != registered POIs");
  }
  // The global TIA must dominate the per-epoch max of the whole tree.
  std::vector<TiaRecord> dist;
  TAR_RETURN_NOT_OK(NodeDistribution(*nodes_[root_], &dist));
  for (const TiaRecord& r : dist) {
    auto agg = global_tia_->Aggregate(r.extent);
    if (!agg.ok()) return agg.status();
    if (agg.ValueOrDie() < r.aggregate) {
      return Status::Corruption("global TIA below tree per-epoch max");
    }
  }
  return Status::OK();
}

}  // namespace tar
