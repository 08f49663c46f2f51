// Parallel kNNTA query execution: a fixed-size worker pool over one shared,
// read-only TAR-tree.
//
// TarTree::Query is const but not pure: every query mutates the shared
// buffer pool (LRU state, hit/miss counters) and the PageFile read
// counters. The latched storage layer (see docs/internals.md, "Threading
// model") makes those mutations thread-safe, which is what allows N
// workers to drain one query batch against a single tree. Everything else
// a worker touches — its result vectors, its per-worker AccessStats, its
// latency slots — is thread-private until the final merge.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/status.h"
#include "core/tar_tree.h"
#include "storage/buffer_pool.h"

namespace tar {

/// \brief Knobs for a parallel batch run.
struct ParallelQueryOptions {
  /// Worker threads. 1 runs the batch inline on the calling thread (the
  /// determinism baseline); must be >= 1.
  std::size_t num_threads = 4;

  /// Per-query budget: wall-clock deadline plus node-visit and TIA-page
  /// ceilings (see QueryBudget in common/deadline.h). The deadline clock
  /// arms when a worker *starts* the query, not at submission. The batch
  /// is the caller's own work list, so nothing is shed here; load
  /// shedding belongs to ShardedServer (core/serve.h).
  QueryBudget budget;

  /// Degrade instead of failing: a query whose budget trips mid-search
  /// returns its current top-k prefix with OK status, and
  /// report->partial_info[i] carries the cut (completed = false plus the
  /// Property-1 score bound; see PartialResult in common/deadline.h).
  bool allow_partial = false;

  /// Optional batch-wide cancel switch, observed by every in-flight query
  /// at its cooperative check points. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Per-query and aggregate outcome of a parallel batch.
struct ParallelQueryReport {
  /// results[i] / statuses[i] / query_micros[i] belong to queries[i].
  std::vector<std::vector<KnntaResult>> results;
  std::vector<Status> statuses;
  std::vector<double> query_micros;

  /// Sum of every worker's access counters (the paper's cost measure,
  /// aggregated over the batch).
  AccessStats total_stats;

  std::size_t queries_ok = 0;
  std::size_t queries_failed = 0;
  /// Failed queries bucketed by status code (e.g. how many hit IoError vs
  /// Corruption), for degradation reporting.
  std::map<Status::Code, std::size_t> failures_by_code;
  double wall_micros = 0.0;  ///< batch wall-clock time
  double max_query_micros = 0.0;
  double mean_query_micros = 0.0;

  /// Per-query latency distribution over the *completed* queries only: a
  /// query that timed out, was cancelled, or degraded to a
  /// partial prefix is counted in the outcome counters below instead, so
  /// the percentiles describe service time rather than failure time.
  /// Workers accumulate thread-private snapshots that are merged under the
  /// same lock as total_stats; percentiles (P50/P95/P99) come from the
  /// merged histogram.
  LatencySnapshot latency;

  /// partial_info[i] describes query i's degradation cut when
  /// options.allow_partial is set: completed == false means results[i] is
  /// a correct prefix of the full answer and every unreported POI scores
  /// >= score_bound. Completed queries keep the default (completed ==
  /// true). Empty unless allow_partial.
  std::vector<PartialResult> partial_info;

  /// Outcome counters for the degradation matrix: queries aborted by
  /// their per-query deadline/work budget (kDeadlineExceeded), cancelled
  /// via options.cancel (kCancelled), and degraded to a partial prefix
  /// (OK status, partial_info[i].completed == false).
  std::size_t timeouts = 0;
  std::size_t cancels = 0;
  std::size_t partials = 0;

  /// The TIA buffer-pool counters' advance across the batch. The pool
  /// counters are cumulative over the tree's lifetime (index load
  /// included), so a correct per-batch hit rate must use `pool_delta`,
  /// never the raw totals: pool_delta.HitRate() is the batch hit rate,
  /// pool_delta.Fetches() the batch fetch count.
  BufferPool::CounterSnapshot pool_delta;

  /// Indices into the query batch whose statuses are non-OK.
  std::vector<std::size_t> FailedQueries() const {
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].ok()) failed.push_back(i);
    }
    return failed;
  }

  /// Queries per second over the batch wall time.
  double Throughput() const {
    return wall_micros > 0.0
               ? 1e6 * static_cast<double>(results.size()) / wall_micros
               : 0.0;
  }
};

/// Executes `queries` against `tree` with a pool of
/// `options.num_threads` workers. Work is claimed from a shared atomic
/// cursor, so the assignment of queries to threads is load-balanced (and
/// deliberately unspecified). Individual query failures — including
/// deadline trips and cancellation — are recorded in
/// `report->statuses` without aborting the batch; the returned Status is
/// non-OK only for invalid options.
Status RunParallelQueries(const TarTree& tree,
                          const std::vector<KnntaQuery>& queries,
                          const ParallelQueryOptions& options,
                          ParallelQueryReport* report);

}  // namespace tar
