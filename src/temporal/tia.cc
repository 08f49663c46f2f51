#include "temporal/tia.h"

#include <algorithm>

namespace tar {

const char* ToString(TiaBackend backend) {
  switch (backend) {
    case TiaBackend::kMvbt:
      return "MVBT";
    case TiaBackend::kBpTree:
      return "B+tree";
  }
  return "?";
}

Tia::Tia(PageFile* file, BufferPool* pool, OwnerId owner, TiaBackend backend)
    : owner_(owner), backend_(backend) {
  if (backend_ == TiaBackend::kMvbt) {
    mvbt_ = std::make_unique<mvbt::Mvbt>(file, pool, owner);
  } else {
    bptree_ = std::make_unique<bptree::BpTree>(file, pool, owner);
  }
}

std::int64_t Tia::Pack(const TimeInterval& extent, std::int64_t agg) {
  // value = duration (seconds, 31 bits) << 32 | aggregate (32 bits).
  std::int64_t duration = extent.end - extent.start + 1;
  return (duration << 32) | (agg & 0xFFFFFFFFll);
}

TiaRecord Tia::Unpack(std::int64_t ts, std::int64_t value) {
  std::int64_t duration = value >> 32;
  std::int64_t agg = value & 0xFFFFFFFFll;
  return TiaRecord{{ts, ts + duration - 1}, agg};
}

Status Tia::InsertRecord(std::int64_t key, std::int64_t value) {
  if (backend_ == TiaBackend::kMvbt) {
    return mvbt_->Insert(++op_counter_, key, value);
  }
  auto existing = bptree_->Get(key);
  if (!existing.ok()) return existing.status();
  const std::optional<std::int64_t> stored = existing.ValueOrDie();
  if (stored.has_value()) {
    return Status::AlreadyExists("record for this epoch already stored");
  }
  return bptree_->Put(key, value);
}

Result<std::optional<std::int64_t>> Tia::LookupRecord(std::int64_t key)
    const {
  if (backend_ == TiaBackend::kMvbt) {
    return mvbt_->Lookup(mvbt_->last_version(), key);
  }
  return bptree_->Get(key);
}

Status Tia::OverwriteRecord(std::int64_t key, std::int64_t value) {
  if (backend_ == TiaBackend::kMvbt) {
    TAR_RETURN_NOT_OK(mvbt_->Erase(++op_counter_, key));
    return mvbt_->Insert(++op_counter_, key, value);
  }
  return bptree_->Put(key, value);
}

Status Tia::CheckPackable(const TimeInterval& extent,
                          std::int64_t aggregate) {
  if (!extent.Valid()) {
    return Status::InvalidArgument("invalid epoch extent");
  }
  if (aggregate >= (1ll << 32) ||
      extent.end - extent.start + 1 >= (1ll << 31)) {
    return Status::InvalidArgument("aggregate or epoch length out of range");
  }
  return Status::OK();
}

Status Tia::Append(const TimeInterval& extent, std::int64_t aggregate) {
  if (aggregate <= 0) {
    return Status::InvalidArgument("TIA stores only non-zero aggregates");
  }
  TAR_RETURN_NOT_OK(CheckPackable(extent, aggregate));
  TAR_RETURN_NOT_OK(InsertRecord(extent.start, Pack(extent, aggregate)));
  total_ += aggregate;
  ++num_records_;
  return Status::OK();
}

Status Tia::RaiseTo(const TimeInterval& extent, std::int64_t aggregate) {
  // Same validation as Append: without it, an aggregate >= 2^32 or an
  // over-long extent would silently corrupt the duration bits in Pack.
  TAR_RETURN_NOT_OK(CheckPackable(extent, aggregate));
  if (aggregate <= 0) return Status::OK();  // nothing to raise
  auto existing = LookupRecord(extent.start);
  if (!existing.ok()) return existing.status();
  const std::optional<std::int64_t> stored = existing.ValueOrDie();
  if (stored.has_value()) {
    TiaRecord old = Unpack(extent.start, *stored);
    if (old.aggregate >= aggregate) return Status::OK();
    TAR_RETURN_NOT_OK(
        OverwriteRecord(extent.start, Pack(extent, aggregate)));
    total_ += aggregate - old.aggregate;
    return Status::OK();
  }
  TAR_RETURN_NOT_OK(InsertRecord(extent.start, Pack(extent, aggregate)));
  total_ += aggregate;
  ++num_records_;
  return Status::OK();
}

Result<std::int64_t> Tia::Aggregate(const TimeInterval& iq,
                                    AccessStats* stats,
                                    QueryDeadline* deadline) const {
  TAR_CHECK_CANCEL(deadline);
  // The TIA-page budget is charged from the stats delta across the scan;
  // when the caller passed no stats, a scratch block keeps the accounting
  // without changing what the caller observes.
  AccessStats scratch;
  AccessStats* counted = stats;
  if (counted == nullptr && deadline != nullptr &&
      deadline->wants_tia_accounting()) {
    counted = &scratch;
  }
  if (counted != nullptr) ++counted->aggregate_calls;
  const std::uint64_t pages_before =
      counted != nullptr ? counted->tia_page_reads : 0;
  std::int64_t sum = 0;
  std::size_t visited = 0;
  auto visit = [&](std::int64_t ts, std::int64_t value) {
    ++visited;
    const TiaRecord rec = Unpack(ts, value);
    if (rec.extent.end <= iq.end) sum += rec.aggregate;
  };
  TAR_RETURN_NOT_OK(
      backend_ == TiaBackend::kMvbt
          ? mvbt_->Scan(mvbt_->last_version(), iq.start, iq.end, visit,
                        counted)
          : bptree_->Scan(iq.start, iq.end, visit, counted));
  if (deadline != nullptr) {
    if (counted != nullptr) {
      deadline->ChargeTiaPages(counted->tia_page_reads - pages_before);
    }
    // One poll per visited record, after the charge, so a page-budget
    // trip surfaces from this call.
    for (std::size_t i = 0; i < visited; ++i) {
      TAR_CHECK_CANCEL(deadline);  // Poll() amortizes the clock internally
    }
  }
  return sum;
}

Status Tia::CheckBackend() const {
  if (backend_ == TiaBackend::kMvbt) {
    TAR_RETURN_NOT_OK(mvbt_->CheckInvariants());
    auto live = mvbt_->CountAlive(mvbt_->last_version());
    if (!live.ok()) return live.status();
    if (live.ValueOrDie() != num_records_) {
      return Status::Corruption(
          "MVBT live record count disagrees with TIA num_records");
    }
    return Status::OK();
  }
  TAR_RETURN_NOT_OK(bptree_->CheckInvariants());
  if (bptree_->size() != num_records_) {
    return Status::Corruption(
        "B+-tree size disagrees with TIA num_records");
  }
  return Status::OK();
}

Status Tia::Records(std::vector<TiaRecord>* out, AccessStats* stats) const {
  out->clear();
  std::vector<std::pair<std::int64_t, std::int64_t>> hits;
  // Inclusive full-key-range scan: both backends treat [lo, hi] as closed,
  // so hi must be INT64_MAX (the old INT64_MAX - 1 bound dropped a record
  // keyed at the maximum representable timestamp).
  if (backend_ == TiaBackend::kMvbt) {
    TAR_RETURN_NOT_OK(
        mvbt_->RangeScanCurrent(INT64_MIN, INT64_MAX, &hits, stats));
  } else {
    TAR_RETURN_NOT_OK(bptree_->RangeScan(INT64_MIN, INT64_MAX, &hits, stats));
  }
  out->reserve(hits.size());
  for (const auto& [ts, value] : hits) out->push_back(Unpack(ts, value));
  return Status::OK();
}

}  // namespace tar
