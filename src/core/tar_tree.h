// TAR-tree: temporal aggregate R-tree (Section 4 of the paper).
//
// An R*-tree variant in which every entry points to a TIA (temporal index on
// the aggregate). A leaf entry's TIA holds the per-epoch check-in counts of
// its POI; an internal entry's TIA holds, per epoch, the maximum aggregate
// of the TIAs in its child node, giving query processing a consistent upper
// bound (Property 1). Entries are grouped by one of three strategies
// (Section 5): the classic R* spatial grouping (IND-spa), grouping by
// aggregate-distribution similarity (IND-agg), or the paper's integral-3D
// strategy where each entry is a 3-D box whose third coordinate is the
// normalized expected check-in rate z_p = 1 - lambda_p / max lambda_p.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/geometry.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_types.h"
#include "core/dataset.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "temporal/tia.h"

namespace tar {

/// Entry grouping strategy (Section 5).
enum class GroupingStrategy {
  kSpatial,     ///< IND-spa: R* on the 2-D spatial extents
  kAggregate,   ///< IND-agg: Manhattan distance between epoch distributions
  kIntegral3D,  ///< TAR-tree: R* on 3-D boxes (x, y, normalized aggregate)
};

const char* ToString(GroupingStrategy s);

/// \brief Construction parameters for a TarTree.
struct TarTreeOptions {
  GroupingStrategy strategy = GroupingStrategy::kIntegral3D;

  /// R-tree node size in bytes; the paper uses 1024 by default, giving node
  /// capacities of 50 (2-D entries) and 36 (3-D entries).
  std::size_t node_size_bytes = 1024;

  /// Buffer slots per TIA (the paper assigns a maximum of 10).
  std::size_t tia_buffer_slots = 10;

  /// Page size of the simulated disk holding the TIAs.
  std::size_t tia_page_size = 1024;

  /// Index structure backing the TIAs (the paper uses the multiversion
  /// B-tree; the plain B+-tree is the aRB-tree-style alternative).
  TiaBackend tia_backend = TiaBackend::kMvbt;

  /// Epoch discretization of the time axis.
  EpochGrid grid;

  /// Spatial extent of the data space; the ranking function normalizes the
  /// spatial distance by this box's diagonal.
  Box2 space;

  std::size_t NodeCapacity() const;
  std::size_t GroupingDims() const {
    return strategy == GroupingStrategy::kIntegral3D ? 3 : 2;
  }
};

/// \brief A kNNTA query (Definition 1).
struct KnntaQuery {
  Vec2 point;
  TimeInterval interval;
  std::size_t k = 10;
  double alpha0 = 0.3;  ///< weight of the spatial distance; alpha1 = 1 - a0
};

/// \brief One result of a kNNTA query.
struct KnntaResult {
  PoiId poi = kInvalidPoiId;
  double score = 0.0;        ///< f(p), lower is better
  double dist = 0.0;         ///< unnormalized Euclidean distance
  std::int64_t aggregate = 0;  ///< temporal aggregate over the interval
};

/// \brief The TAR-tree.
///
/// Thread safety: const query methods may run concurrently from any
/// number of threads (shared-state mutation funnels through the latched
/// BufferPool/PageFile; see docs/internals.md, "Threading model");
/// mutations (InsertPoi, AppendEpoch, ...) require external exclusion.
/// Debug builds enforce the exclusion contract: two threads caught inside
/// mutations at the same time trip a TAR_DCHECK instead of silently
/// corrupting pages.
class TarTree {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kInvalidNodeId = 0xFFFFFFFFu;

  /// \brief One slot of a TAR-tree node.
  ///
  /// The grouping box has the spatial MBR in dims 0-1 and the normalized
  /// aggregate interval in dim 2 (maintained for every strategy; only the
  /// integral-3D strategy uses it for grouping). Query processing reads the
  /// spatial extent from the box and the aggregate bound from the TIA.
  struct Entry {
    Box3 box;
    NodeId child = kInvalidNodeId;  ///< internal entries
    PoiId poi = kInvalidPoiId;      ///< leaf entries
    std::unique_ptr<Tia> tia;
    /// Per-epoch aggregate distribution (kAggregate grouping only).
    std::vector<std::int32_t> distvec;

    bool is_leaf_entry() const { return poi != kInvalidPoiId; }
  };

  struct Node {
    NodeId id = kInvalidNodeId;
    std::int32_t level = 0;  ///< 0 = leaf
    std::vector<Entry> entries;

    bool is_leaf() const { return level == 0; }
  };

  explicit TarTree(const TarTreeOptions& options);

  TarTree(const TarTree&) = delete;
  TarTree& operator=(const TarTree&) = delete;

  /// Inserts a POI with its per-epoch check-in history so far (history[e] =
  /// count in epoch e; may be empty for a brand-new POI). Updates the MBRs,
  /// z-intervals and TIAs along the insertion path (Section 4.2).
  Status InsertPoi(const Poi& poi,
                   const std::vector<std::int32_t>& history = {});

  /// Removes a POI (same as R-tree deletion; underfull nodes reinsert).
  Status DeletePoi(PoiId poi);

  /// Digests one finished epoch: `aggs[poi]` is the check-in count of each
  /// POI with a non-zero aggregate in the epoch with index `epoch`. Appends
  /// to the TIAs along the affected paths and refreshes the z-coordinates.
  Status AppendEpoch(std::int64_t epoch,
                     const std::unordered_map<PoiId, std::int64_t>& aggs);

  // --- Crash consistency (see docs/internals.md, "Failure model") ---
  // The doors above are plain in-memory mutations; a logged tree takes
  // its mutations through LogRecord + ApplyWalRecord (core/recovery.h).

  /// LSN of the last mutation applied to this tree (0 = none). Persisted
  /// in the file footer so recovery knows where a snapshot's history ends.
  Lsn applied_lsn() const { return applied_lsn_; }

  /// Applies one logged WAL record: the only way a record reaches the
  /// tree, both for a live write after LogRecord and for recovery replay.
  /// Idempotent by LSN: records at or below applied_lsn() are skipped, so
  /// replaying the same log twice over the same checkpoint is a no-op.
  /// Checkpoint markers never mutate. `applied` (optional) reports whether
  /// the record actually mutated the tree.
  Status ApplyWalRecord(const WalRecord& record, bool* applied = nullptr);

  /// True once a mutation failed after it began modifying pages: the
  /// in-memory state is suspect, so queries, further mutations and saves
  /// all refuse with a status carrying the original failure. The durable
  /// state is unaffected — recover from the checkpoint + WAL instead.
  bool poisoned() const { return poisoned_; }

  /// The failure that poisoned the tree (OK when not poisoned).
  Status poison_status() const { return poison_; }

  /// Answers a kNNTA query with best-first search. Access counts are added
  /// to `stats` when provided. When `trace` is provided the query
  /// additionally records a per-phase breakdown (context/gmax, best-first
  /// search) with timings, heap traffic and per-phase access stats; the
  /// phase stats sum to exactly what the query adds to `stats`. Tracing is
  /// independent of the global metrics flag — the caller asked for this
  /// query — and costs two clock reads per scored entry, so it is meant
  /// for diagnostics, not for every production query.
  ///
  /// `deadline` (optional) is polled at every cooperative check point
  /// (node expansion, per scored entry, inside TIA page loops). On a trip
  /// the search aborts with kDeadlineExceeded/kCancelled, `results` holds
  /// whatever prefix had been emitted, and the trace/stats invariant
  /// above still holds — the abort path folds phase stats exactly like
  /// the success path.
  ///
  /// `partial` (optional) opts into graceful degradation: a deadline/
  /// cancel/budget trip during the best-first search then returns OK with
  /// the current top-k prefix and stamps `*partial` (completed = false,
  /// cause = the would-be abort status, score_bound = the minimum score
  /// in the remaining frontier). The returned prefix is exact — identical
  /// to the full answer's first entries — and every POI not returned
  /// scores >= score_bound (Property 1). A trip before the search phase
  /// (validation, context/gmax) still fails hard: there is no prefix to
  /// return. On a complete run `*partial` keeps its defaults.
  Status Query(const KnntaQuery& query, std::vector<KnntaResult>* results,
               AccessStats* stats = nullptr, QueryTrace* trace = nullptr,
               QueryDeadline* deadline = nullptr,
               PartialResult* partial = nullptr) const;

  /// Validates a WAL record against the current tree state without
  /// applying it, with the same checks as the direct doors. LogRecord
  /// runs it before appending: every logged record must replay cleanly.
  /// Checkpoint markers always pass.
  Status PrevalidateRecord(const WalRecord& record) const;

  // --- Introspection (cost analysis, MWA, collective processing, tests) ---

  /// Normalization and alignment shared by all query-processing code.
  struct QueryContext {
    Vec2 q;
    TimeInterval interval;  ///< aligned outward to epoch boundaries
    double alpha0 = 0.3;
    double alpha1 = 0.7;
    double dmax = 1.0;  ///< spatial normalizer (diagonal of the space)
    double gmax = 1.0;  ///< aggregate normalizer over the interval
  };

  /// Builds the query context. The aggregate normalizer gmax is the
  /// maximum single-POI aggregate over the interval (the range of the
  /// aggregate, as the ranking function requires), found by a best-first
  /// search on the TIA bounds; its accesses are charged to `stats`.
  /// Fails (propagating the underlying Status, e.g. an injected or real
  /// I/O error from the TIA layer) rather than degrading the normalizer.
  /// With `trace`, appends a "context/gmax" phase carrying the timing,
  /// gmax heap traffic and access breakdown of the normalizer search.
  Result<QueryContext> MakeContext(const KnntaQuery& query,
                                   AccessStats* stats = nullptr,
                                   QueryTrace* trace = nullptr,
                                   QueryDeadline* deadline = nullptr) const;

  /// Query with a caller-supplied context instead of MakeContext. The
  /// sharded fan-out (core/sharded_store.h) uses this to normalize every
  /// shard with one shared dmax/gmax: per-shard contexts would make the
  /// merged scores incomparable and break bit-equality with an unsharded
  /// tree. `ctx.interval` is used as-is (the caller aligned it once);
  /// everything else — validation, audit hooks, tracing, partial
  /// conversion, metrics — behaves exactly like Query.
  Status QueryWithContext(const KnntaQuery& query, const QueryContext& ctx,
                          std::vector<KnntaResult>* results,
                          AccessStats* stats = nullptr,
                          QueryTrace* trace = nullptr,
                          QueryDeadline* deadline = nullptr,
                          PartialResult* partial = nullptr) const;

  /// Maximum aggregate of any single POI over `iq` (0 on an empty tree or
  /// an interval with no check-ins). Exact; runs a best-first search
  /// guided by the internal TIA upper bounds. A TIA read failure aborts
  /// the search with the failing entry's node path in the Status.
  Result<std::int64_t> MaxAggregate(const TimeInterval& iq,
                                    AccessStats* stats = nullptr,
                                    QueryDeadline* deadline = nullptr) const;

  /// Ranking score f(e) of an entry: exact for leaf entries, a consistent
  /// lower bound for internal entries (Property 1).
  Result<double> EntryScore(const Entry& entry, const QueryContext& ctx,
                            AccessStats* stats = nullptr,
                            QueryDeadline* deadline = nullptr) const;

  /// Both normalized components of an entry's score: the normalized spatial
  /// distance s0 and normalized aggregate complement s1 (f = a0*s0 + a1*s1).
  /// On failure s0/s1 are unspecified and the TIA error is propagated.
  Status EntryComponents(const Entry& entry, const QueryContext& ctx,
                         double* s0, double* s1,
                         AccessStats* stats = nullptr,
                         QueryDeadline* deadline = nullptr) const;

  /// The spatial extent every query normalizes against: options().space,
  /// or the root node's spatial MBR when no space was configured. Feed it
  /// to SpatialNormalizer (core/ranking.h) to get the dmax MakeContext
  /// uses; ScanBaseline shares the same derivation so index and oracle
  /// scores stay bit-comparable.
  Box2 QuerySpace() const;

  const Node& node(NodeId id) const { return *nodes_[id]; }
  NodeId root() const { return root_; }
  bool empty() const { return num_pois_ == 0; }
  std::size_t num_pois() const { return num_pois_; }
  std::size_t num_nodes() const { return num_live_nodes_; }
  std::size_t height() const;
  const TarTreeOptions& options() const { return options_; }
  const EpochGrid& grid() const { return options_.grid; }
  std::size_t capacity() const { return capacity_; }

  /// Global per-epoch maximum aggregate over all POIs; its Aggregate(Iq) is
  /// the normalizer g_max of the ranking function.
  const Tia& global_tia() const { return *global_tia_; }

  /// Buffer pool backing all TIAs (exposed so experiments can vary quotas).
  BufferPool* tia_buffer_pool() { return &pool_; }
  const BufferPool* tia_buffer_pool() const { return &pool_; }

  /// Registered position and running check-in total of a POI, or nullopt
  /// if unknown. The leaf TIA of a POI must sum to exactly this total —
  /// the redundancy the structure verifier exploits to catch corrupted
  /// leaf aggregates.
  struct PoiSnapshot {
    Vec2 pos;
    std::int64_t total = 0;
  };
  std::optional<PoiSnapshot> poi_snapshot(PoiId id) const {
    auto it = poi_info_.find(id);
    if (it == poi_info_.end()) return std::nullopt;
    return PoiSnapshot{it->second.pos, it->second.total};
  }

  /// Largest POI check-in total seen (normalizes the z dimension).
  std::int64_t max_total() const { return max_total_; }

  /// Pre-seeds the z normalizer before a bulk build. Without this, POIs
  /// inserted early get z coordinates computed against a smaller running
  /// maximum, degrading the integral-3D grouping (the staleness the paper
  /// addresses with periodic rebuilds). Only ever raises the value.
  void SeedMaxTotal(std::int64_t max_total) {
    max_total_ = std::max(max_total_, max_total);
  }

  /// Structural invariants: MBR/z containment, fill bounds, balanced
  /// height, TIA upper-bound property on sampled intervals. For tests.
  Status CheckInvariants() const;

  /// Test-only sabotage for the pruning-certificate auditor: audited
  /// builds add `eps` to every internal entry's bound score in Query,
  /// deliberately breaking Property 1 so tests can prove the auditor
  /// catches a weakened bound. Release builds keep the member (layout
  /// stability) but never read it.
  void set_audit_bound_inflation(double eps) { audit_bound_inflation_ = eps; }

  /// Rebuilds the tree from its current POIs (recomputes z with the current
  /// max total; the paper suggests periodic rebuilds when performance
  /// degrades).
  Status Rebuild();

  /// \brief Verification policy applied after a persistence load.
  struct LoadOptions {
    /// Run CheckInvariants on the loaded tree (cheap, catches structural
    /// damage: containment, fill, balance, registry counts). On by
    /// default — a load that skips it will happily return a tree whose
    /// aggregates are silently wrong.
    bool verify = true;

    /// Optional deep verification pass run after the basic check. The
    /// analysis layer supplies a StructureVerifier-backed callable
    /// (analysis::DeepVerifyOnLoad); keeping it a callback keeps core
    /// free of a dependency on the analysis subsystem.
    std::function<Status(const TarTree&)> deep_verifier;
  };

  /// Serializes the index (structure, boxes, TIA records, normalizers) to
  /// a binary stream in the one file format (version 2): sectioned, with a
  /// CRC-32C per section and a footer holding the whole-file checksum and
  /// applied_lsn(), which makes every saved file a recovery checkpoint (see
  /// docs/internals.md, "Failure model"). Refuses to serialize a poisoned
  /// tree.
  Status Save(std::ostream& out) const;

  /// Restores an exact structural copy of a saved tree: same nodes, same
  /// grouping, same query costs. Any other format version fails with
  /// NotSupported; a bad checksum, footer or section fails with Corruption.
  static Result<std::unique_ptr<TarTree>> Load(std::istream& in,
                                               const LoadOptions& options);
  static Result<std::unique_ptr<TarTree>> Load(std::istream& in) {
    return Load(in, LoadOptions());
  }

  /// File wrappers around Save/Load. SaveToFile is atomic: it writes
  /// `path + ".tmp"` and renames over `path` only after a fully flushed,
  /// error-free save, so a crash or injected fault mid-save never
  /// clobbers an existing good file.
  Status SaveToFile(const std::string& path) const;
  static Result<std::unique_ptr<TarTree>> LoadFromFile(
      const std::string& path, const LoadOptions& options);
  static Result<std::unique_ptr<TarTree>> LoadFromFile(
      const std::string& path) {
    return LoadFromFile(path, LoadOptions());
  }

 private:
  friend class TarTreeTestPeer;

  /// Debug-build enforcement of the single-writer contract (RAII; defined
  /// in tar_tree.cc). Release builds compile it down to nothing.
  class SingleWriterGuard;

  /// Rejects mutations on a poisoned tree with the original failure.
  Status CheckMutable() const;

  /// Marks the tree poisoned by `cause` (first failure wins).
  void Poison(const Status& cause);

  /// The status every refused operation on a poisoned tree returns.
  Status PoisonedError(const char* refused) const;

  /// Validates an InsertPoi/AppendEpoch *before* it is logged or applied,
  /// so a rejected mutation leaves the tree clean, not poisoned.
  Status PrevalidateInsert(const Poi& poi,
                           const std::vector<std::int32_t>& history) const;
  Status PrevalidateEpoch(
      std::int64_t epoch,
      const std::unordered_map<PoiId, std::int64_t>& aggs) const;

  /// The mutation bodies, shared by the direct doors and ApplyWalRecord.
  Status InsertPoiUnlogged(const Poi& poi,
                           const std::vector<std::int32_t>& history);
  Status AppendEpochUnlogged(
      std::int64_t epoch,
      const std::unordered_map<PoiId, std::int64_t>& aggs);

  /// Shared implementation of Query/QueryWithContext: `shared_ctx` null
  /// means build the context with MakeContext (inside the partial-
  /// conversion scope, exactly as before the split).
  Status QueryInternal(const KnntaQuery& query, const QueryContext* shared_ctx,
                       std::vector<KnntaResult>* results, AccessStats* stats,
                       QueryTrace* trace, QueryDeadline* deadline,
                       PartialResult* partial) const;

  /// MaxAggregate with per-phase trace accounting: heap traffic and TIA
  /// time go to `phase` when non-null (stats go to `stats` as usual).
  Result<std::int64_t> MaxAggregateTraced(const TimeInterval& iq,
                                          AccessStats* stats,
                                          QueryTrace::Phase* phase,
                                          QueryDeadline* deadline) const;

  /// What an in-flight insertion contributes to the entries on its path.
  struct InsertionInfo {
    Box3 box;
    std::vector<TiaRecord> records;
    const std::vector<std::int32_t>* distvec = nullptr;
  };

  /// An entry waiting to be (re)inserted into a node at `level`.
  struct PendingInsert {
    Entry entry;
    std::int32_t level;
  };

  Node* MutableNode(NodeId id) { return nodes_[id].get(); }
  NodeId NewNode(std::int32_t level);
  std::unique_ptr<Tia> NewTia();

  /// z-coordinate of a POI with check-in total `total`.
  double ZOf(std::int64_t total) const;

  /// Inserts `entry` into a node at tree level `level` (0 = leaf),
  /// R*-style; drives the deferred forced-reinsertion queue.
  Status InsertEntry(Entry entry, std::int32_t level);

  /// Recursive insertion step. On a split, *split_out carries the entry for
  /// the new sibling; forced reinsertions are pushed onto `pending`.
  Status InsertRec(NodeId node_id, Entry entry, std::int32_t level,
                   const InsertionInfo& info,
                   std::vector<bool>* reinsert_done,
                   std::vector<PendingInsert>* pending,
                   std::unique_ptr<Entry>* split_out);

  /// Rescales a grouping box so every dimension spans [0, 1] (the paper
  /// normalizes the spatial and aggregate dimensions by their domain
  /// ranges before grouping; without this the raw spatial extents drown
  /// the aggregate dimension in the R* margin/area/overlap metrics).
  Box3 NormalizedForGrouping(const Box3& box) const;

  /// R*: index of the child of `node` to descend into for `box`.
  std::size_t ChooseSubtree(const Node& node, const Box3& box) const;

  /// kAggregate: index of the child with the closest distribution.
  std::size_t ChooseSubtreeByDistribution(
      const Node& node, const std::vector<std::int32_t>& distvec) const;

  /// Splits the entries of an overflowing node into two groups.
  void SplitEntries(std::vector<Entry> entries,
                    std::vector<Entry>* left, std::vector<Entry>* right) const;

  /// R* split (margin-minimal axis, overlap-minimal distribution).
  void SplitEntriesRStar(std::vector<Entry>* entries,
                         std::vector<Entry>* left,
                         std::vector<Entry>* right) const;

  /// IND-agg split (maximize the distribution distance between groups).
  void SplitEntriesByDistribution(std::vector<Entry>* entries,
                                  std::vector<Entry>* left,
                                  std::vector<Entry>* right) const;

  /// Rebuilds a parent entry (box, TIA, distvec) exactly from its child
  /// node's members (allocates a fresh TIA).
  Status RefreshParentEntry(Entry* parent_entry, const Node& child);

  /// Extends a parent entry by an insertion passing through it: box union,
  /// TIA raise, distvec max. Never shrinks, preserving the upper bounds.
  Status AugmentParentEntry(Entry* parent_entry, const InsertionInfo& info);

  /// Union of the member boxes of a node.
  Box3 NodeBox(const Node& node) const;

  /// Per-epoch max over the member entries' TIA records of a node.
  Status NodeDistribution(const Node& node,
                          std::vector<TiaRecord>* out) const;

  /// Raises `tia` so it dominates `records`.
  Status RaiseTia(Tia* tia, const std::vector<TiaRecord>& records) const;

  /// Converts per-epoch records to a dense epoch-indexed vector.
  std::vector<std::int32_t> RecordsToDistvec(
      const std::vector<TiaRecord>& records) const;

  /// Walks from the root to the leaf containing POI `poi`'s entry; `pos` is
  /// the POI's position (used to prune by spatial containment).
  bool FindLeaf(NodeId node_id, PoiId poi, const Vec2& pos,
                std::vector<NodeId>* path) const;

  Status CheckNodeInvariants(NodeId id, const Entry* parent_entry,
                             std::size_t* leaf_depth, std::size_t depth,
                             std::size_t* poi_count) const;

  TarTreeOptions options_;
  std::size_t capacity_;
  std::size_t min_fill_;
  std::size_t reinsert_count_;

  PageFile file_;    // simulated disk for all TIAs
  BufferPool pool_;  // per-TIA buffer quotas

  std::vector<std::unique_ptr<Node>> nodes_;
  NodeId root_ = kInvalidNodeId;
  std::size_t num_live_nodes_ = 0;
  std::size_t num_pois_ = 0;
  OwnerId next_owner_ = 1;

  std::unique_ptr<Tia> global_tia_;
  std::int64_t max_total_ = 0;

  Lsn applied_lsn_ = 0;
  bool poisoned_ = false;
  Status poison_ = Status::OK();

  /// Hashed id of the thread currently inside a mutation (0 = none); the
  /// debug single-writer assertion CASes it (release builds keep the
  /// member so layout doesn't depend on NDEBUG, but never touch it).
  std::atomic<std::uint64_t> writer_tid_{0};

  /// See set_audit_bound_inflation; read only under TAR_QUERY_AUDIT.
  double audit_bound_inflation_ = 0.0;

  /// Per-POI running totals and positions (z maintenance and rebuilds).
  struct PoiInfo {
    Vec2 pos;
    std::int64_t total = 0;
  };
  std::unordered_map<PoiId, PoiInfo> poi_info_;

  /// The mutating tail of DeletePoi, once the entry has been located.
  Status DeleteFound(PoiId poi,
                     std::unordered_map<PoiId, PoiInfo>::iterator it,
                     const std::vector<NodeId>& path);
};

}  // namespace tar
