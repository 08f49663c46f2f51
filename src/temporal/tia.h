// TIA — temporal index on the aggregate (Section 4.1 of the paper).
//
// Each TAR-tree entry points to a TIA storing one record <ts, te, agg> per
// epoch with a non-zero aggregate. A leaf entry's TIA holds the POI's own
// per-epoch counts; an internal entry's TIA holds, per epoch, the maximum
// aggregate among the TIAs in its child node. Records support epochs of
// varied lengths.
//
// Two backends are provided, both disk-paged through the buffer pool so
// every query is charged page accesses exactly like a disk-resident index:
//   * kMvbt — the multiversion B-tree the paper uses (asymptotically
//     optimal for versioned access; keeps the full update history);
//   * kBpTree — a plain B+-tree, the backend of the aRB-tree family the
//     paper compares against in its related work.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_types.h"
#include "temporal/bptree.h"
#include "temporal/mvbt.h"

namespace tar {

/// \brief One temporal record: the aggregate over one epoch.
struct TiaRecord {
  TimeInterval extent;     ///< [ts, te] of the epoch
  std::int64_t aggregate;  ///< e.g. number of check-ins in the epoch

  friend bool operator==(const TiaRecord&, const TiaRecord&) = default;
};

/// Which index structure stores the temporal records.
enum class TiaBackend {
  kMvbt,
  kBpTree,
};

const char* ToString(TiaBackend backend);

/// \brief Temporal index on the aggregate of one TAR-tree entry.
///
/// Thread safety: const reads (Aggregate, Records) are safe concurrently
/// — they only mutate the latched buffer pool; Append/RaiseTo require
/// external exclusion.
class Tia {
 public:
  /// \param owner buffer-pool owner id; the paper gives each TIA its own
  ///        small buffer quota (10 slots by default).
  Tia(PageFile* file, BufferPool* pool, OwnerId owner,
      TiaBackend backend = TiaBackend::kMvbt);

  Tia(Tia&&) = default;
  Tia& operator=(Tia&&) = default;

  /// Appends the record for a finished epoch. `aggregate` must be positive
  /// (zero aggregates are simply not stored).
  Status Append(const TimeInterval& extent, std::int64_t aggregate);

  /// Raises the stored aggregate of the epoch starting at extent.start to
  /// at least `aggregate` (no-op if the stored value is already >=). Used
  /// when a POI insertion updates the TIAs along its path.
  Status RaiseTo(const TimeInterval& extent, std::int64_t aggregate);

  /// Sum of `agg` over all records whose extent is contained in iq.
  /// Callers align iq outward to epoch boundaries first (EpochGrid), which
  /// turns the paper's "epoch intersects Iq" into containment.
  ///
  /// The records are summed as the backend visits them: no allocation.
  ///
  /// `deadline` (optional) is polled cooperatively: once before the
  /// backend scan, then, after the scan's page reads are charged against
  /// its TIA-page budget, once per visited record (so a budget trip
  /// surfaces from this call whenever the range holds a record). A trip
  /// surfaces as kDeadlineExceeded/kCancelled.
  Result<std::int64_t> Aggregate(const TimeInterval& iq,
                                 AccessStats* stats = nullptr,
                                 QueryDeadline* deadline = nullptr) const;

  /// All records in time order.
  Status Records(std::vector<TiaRecord>* out,
                 AccessStats* stats = nullptr) const;

  /// Total aggregate over the whole history (maintained in memory).
  std::int64_t total() const { return total_; }

  /// Number of stored (non-zero) records.
  std::size_t num_records() const { return num_records_; }

  OwnerId owner() const { return owner_; }
  TiaBackend backend() const { return backend_; }

  /// Structural invariants of the backing index (MVBT version conditions
  /// or B+-tree order/fill), plus consistency between the backend's live
  /// record count and num_records(). Used by analysis::StructureVerifier.
  Status CheckBackend() const;

  /// Shared Append/RaiseTo validation: the extent must be a valid interval
  /// whose duration fits the 31 duration bits, and the aggregate must fit
  /// the 32 value bits of the packed representation. Public so TarTree
  /// can prevalidate a mutation before it is logged or applied — a logged
  /// record must be guaranteed to replay cleanly.
  static Status CheckPackable(const TimeInterval& extent,
                              std::int64_t aggregate);

 private:
  static std::int64_t Pack(const TimeInterval& extent, std::int64_t agg);
  static TiaRecord Unpack(std::int64_t ts, std::int64_t value);

  Status InsertRecord(std::int64_t key, std::int64_t value);
  Result<std::optional<std::int64_t>> LookupRecord(std::int64_t key) const;
  Status OverwriteRecord(std::int64_t key, std::int64_t value);

  OwnerId owner_;
  TiaBackend backend_;
  // Exactly one is non-null, selected by backend_ (unique_ptr rather than
  // optional: only the active backend occupies memory, and no
  // optional-access pattern for static analysis to second-guess).
  std::unique_ptr<mvbt::Mvbt> mvbt_;
  std::unique_ptr<bptree::BpTree> bptree_;
  mvbt::Version op_counter_ = 0;
  std::int64_t total_ = 0;
  std::size_t num_records_ = 0;
};

}  // namespace tar
